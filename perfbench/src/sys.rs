//! Process accounting and span recording for the worker.
//!
//! CPU time and context switches come from `getrusage(RUSAGE_SELF)`, which
//! counts every thread of the process, including rank threads that have
//! already exited. Peak RSS and the live thread count come from
//! `/proc/self/status`. Span timestamps use `CLOCK_MONOTONIC`, the clock
//! Python's `time.monotonic()` reads, so the worker's spans and the
//! orchestrator's spans share one time axis.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_MONOTONIC: i32 = 1;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

/// Cumulative resource usage of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub vol_csw: u64,
    pub invol_csw: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a properly aligned, writable `struct rusage` of the
        // platform layout (two `timeval`s and fourteen `long`s on 64-bit
        // Linux), and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
        let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: tv(&ru.utime),
            sys_s: tv(&ru.stime),
            vol_csw: ru.longs[NVCSW] as u64,
            invol_csw: ru.longs[NIVCSW] as u64,
        }
    }

    pub fn plus(&self, other: &Usage) -> Usage {
        Usage {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
            vol_csw: self.vol_csw + other.vol_csw,
            invol_csw: self.invol_csw + other.invol_csw,
        }
    }

    /// Usage accrued since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vol_csw: self.vol_csw - earlier.vol_csw,
            invol_csw: self.invol_csw - earlier.invol_csw,
        }
    }
}

/// Monotonic clock in seconds, comparable with Python's `time.monotonic()`.
pub fn monotonic() -> f64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux) and CLOCK_MONOTONIC is always supported.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) cannot fail");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// A field of `/proc/self/status` in its own unit (kB for memory).
pub fn status_field(name: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// One recorded span: a call the worker made into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start: f64,
    pub end: f64,
    pub id: u64,
    pub parent: u64,
}

/// In-memory span log; written out once when the worker ends. Ids are
/// handed out when a span opens, so children can name a parent that has
/// not closed yet. When tracing is off nothing is kept.
pub struct Spans {
    on: bool,
    next: AtomicU64,
    log: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans { on, next: AtomicU64::new(1), log: Mutex::new(Vec::new()) }
    }

    /// Open a span: its id and start time.
    pub fn open(&self) -> (u64, f64) {
        (self.next.fetch_add(1, Ordering::Relaxed), monotonic())
    }

    /// Close a span opened by [`Spans::open`], ending now.
    pub fn close(&self, opened: (u64, f64), name: &str, layer: &'static str, parent: u64) {
        self.push(Span {
            name: name.to_string(),
            layer,
            start: opened.1,
            end: monotonic(),
            id: opened.0,
            parent,
        });
    }

    pub fn push(&self, span: Span) {
        if self.on {
            self.log.lock().expect("span log lock is never poisoned").push(span);
        }
    }

    pub fn to_json(&self) -> serde_json::Value {
        let log = self.log.lock().expect("span log lock is never poisoned");
        serde_json::Value::Array(
            log.iter()
                .map(|s| {
                    serde_json::json!({
                        "name": s.name, "layer": s.layer, "start": s.start,
                        "end": s.end, "id": s.id, "parent": s.parent,
                    })
                })
                .collect(),
        )
    }
}
