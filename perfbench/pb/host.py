"""Host facts: the result fingerprint and /proc readings of other
processes (the serving daemon)."""

import hashlib
import os
import subprocess

TICK = os.sysconf("SC_CLK_TCK")

# Source that decides what the benchmark measures; its digest stands in
# for the git revision where the checkout is not a repository.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__", ".perfbench"}


def nproc():
    return len(os.sched_getaffinity(0))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _rustc():
    try:
        return subprocess.run(["rustc", "-V"], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _digest(root, roots):
    h = hashlib.sha256()
    for top in roots:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def _rev(root):
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "src-" + _digest(root, SOURCE_ROOTS)


def fingerprint(root):
    """Machine, toolchain and code identity of a result. ``bench`` is the
    digest of the benchmark's own files: results are comparable only
    when machine, toolchain and benchmark agree."""
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "rustc": _rustc(),
        "rev": _rev(root),
        "bench": _digest(root, ["perfbench", "BENCHMARK.json"]),
    }


COMPARABLE = ("nproc", "cpu", "rustc", "bench")


def _stat_fields(pid):
    with open(f"/proc/{pid}/stat") as f:
        text = f.read()
    return text[text.rindex(")") + 2 :].split()


def cpu_seconds(pid):
    """User and system CPU seconds of every thread of ``pid``, including
    threads that have exited."""
    fields = _stat_fields(pid)
    # After the command name: state is field 3; utime and stime are 14, 15.
    return int(fields[11]) / TICK, int(fields[12]) / TICK


def status_field(pid, name):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(name + ":"):
                return int(line.split()[1])
    return 0


def context_switches(pid):
    """Voluntary and involuntary context switches summed over the live
    threads of ``pid`` (the daemon's worker and rank threads are pooled,
    so they live through a run)."""
    vol = invol = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0, 0
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/status") as f:
                for line in f:
                    if line.startswith("voluntary_ctxt_switches:"):
                        vol += int(line.split()[1])
                    elif line.startswith("nonvoluntary_ctxt_switches:"):
                        invol += int(line.split()[1])
        except OSError:
            continue  # the thread exited while we listed
    return vol, invol
