"""Workload inputs, a pure function of the benchmark's ``--seed``.

The program under test receives only what is generated here: allocation
ids for the tuning sweeps, and job specs for the served mix."""

import random

SPACES = ["capital-cholesky", "slate-cholesky", "candmc-qr", "slate-qr", "summa25d"]
SERVE_POLICIES = ["full", "conditional", "online"]
TENANTS = ["tenant-a", "tenant-b", "tenant-c", "tenant-d"]
TUNER_SEED = 0xC0FFEE  # critter-tune's default, pinned explicitly
ALLOCATION_IDS = 1000
SERVE_ALLOCATIONS = 4  # few ids, so reference reports are shared by jobs

# Configurations per sweep: every smoke space has 4, SLATE Cholesky's
# bench space has 20.
SMOKE_CONFIGS = 4
SLATE_BENCH_CONFIGS = 20

# One block of the served mix: each (space, policy) smoke job once, of
# which OBSERVE_PER_BLOCK observe; STORE_PER_BLOCK store jobs; one
# bench-size SLATE Cholesky job. Which jobs observe, the store jobs'
# spaces and policies, and the bench job's policy rotate from block to
# block, so every run sees the same mix; the seed draws allocation ids,
# tenants and the order within each block.
OBSERVE_PER_BLOCK = 4
STORE_PER_BLOCK = 4
COMBOS = [(s, p) for s in SPACES for p in SERVE_POLICIES]
BLOCK = len(COMBOS) + STORE_PER_BLOCK + 1


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def allocations(workload, seed, count):
    """``count`` distinct allocation ids for a tuning workload."""
    return _rng(workload, seed).sample(range(ALLOCATION_IDS), count)


def _spec(rng, space, policy, smoke, observe=False, store=False):
    spec = {
        "space": space,
        "policy": policy,
        "epsilon": 0.25,
        "smoke": smoke,
        "reps": 1,
        "allocation": rng.randrange(SERVE_ALLOCATIONS),
        "seed": TUNER_SEED,
        "backend": "threads",
        "observe": observe,
        "store": store,
        "tenant": rng.choice(TENANTS),
        "priority": 0,
    }
    if store and space != "capital-cholesky":
        # Only Capital persists models by default; the store needs them.
        spec["persist_models"] = True
    return spec


def serve_jobs(seed, count):
    """The first ``count`` job specs of the served mix, in submit order."""
    rng = _rng("serve-mixed", seed)
    jobs = []
    block_no = 0
    while len(jobs) < count:
        k = block_no * OBSERVE_PER_BLOCK
        observed = {(k + i) % len(COMBOS) for i in range(OBSERVE_PER_BLOCK)}
        block = [
            _spec(rng, s, p, smoke=True, observe=i in observed) for i, (s, p) in enumerate(COMBOS)
        ]
        k = block_no * STORE_PER_BLOCK
        block += [
            _spec(rng, SPACES[(k + i) % len(SPACES)], SERVE_POLICIES[(k + i) % len(SERVE_POLICIES)],
                  smoke=True, store=True)
            for i in range(STORE_PER_BLOCK)
        ]
        block.append(_spec(rng, "slate-cholesky", SERVE_POLICIES[block_no % len(SERVE_POLICIES)],
                           smoke=False))
        rng.shuffle(block)
        jobs += block
        block_no += 1
    return jobs[:count]


def expected_configs(spec):
    return SMOKE_CONFIGS if spec["smoke"] else SLATE_BENCH_CONFIGS
