"""Seeded job lists for the three benchmark workloads.

A job is a JSON-friendly dict: ``{"kind": ..., "argv": [...]}`` for a
``bchbound`` command line, or ``{"kind": "roundtrip", "n", "q", "word"}``
for a ``dft`` -> ``idft`` round trip of one word.

Each code a job names is a multiplier image a*D of a fixed base defining
set D (a coprime to n): an equivalent code with the same dimension, BCH
bound, Bose distance, distance and certificate outcome, and nearly the same
cost, but its own generator, idempotent and certificate. The seed picks the
images and draws the round-trip words, so inputs change with the seed while
the work per run stays steady. Base sets are drawn once from a fixed pool
seed; every image's answer is frozen in ``expected.json``.

The job order is fixed. CPython 3.11 specializes a function's bytecode only
after about eight calls, so a long loop in a function called fewer times
runs unspecialized (the binary Gray walk takes twice as long); shuffling
would move the heavy walks across that threshold from seed to seed.

Stdlib only: the job lists are built before bchbound is imported.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("spectra", "distance", "certify")

# The two command kinds each workload times, reported end to end as
# primary_s and secondary_s.
KINDS = {
    "spectra": ("analyze", "roundtrip"),
    "distance": ("reproduce", "mindist"),
    "certify": ("certify", "forge"),
}

TABLE_IDS = ("small-codes", "n15", "n21", "n45", "n33", "n41", "n17", "bose21")

# spectra: long lengths, where the O(n^2) transforms dominate.
SPECTRA_LENGTHS = ((255, 2), (341, 2), (511, 2), (1023, 2), (121, 3), (242, 3))
SPECTRA_COSETS = 3         # nonzero cosets in each random base set
ROUNDTRIP_LENGTHS = ((255, 2), (121, 3))
ROUNDTRIP_WORDS = 2        # words per length and list

# distance: full enumerations of fixed codes.
MINDIST_CODES = ((31, 2, (1, 3)), (41, 2, (1,)), (13, 3, (1,)), (11, 3, (1,)))

# certify: both search outcomes at n=127 in every list, plus one random
# base set of one to three nonzero cosets per length.
CERTIFY_ANCHORS = ((127, 2, (1, 3, 5)), (127, 2, (1, 3, 5, 7)))
CERTIFY_LENGTHS = ((45, 2), (63, 2), (93, 2), (105, 2), (127, 2), (40, 3), (91, 3))
FORGE_JOBS = (
    "forge --n 31 --q 2 --mode primitive --verify --json",
    "forge --n 63 --q 2 --mode primitive --verify --json",
    "forge --n 127 --q 2 --mode primitive --json",
    "forge --n 45 --q 2 --mode extend --quotient 0,3 --json",
    "forge --n 21 --q 2 --mode divisor --quotient 7 --verify --json",
)

IMAGES = 4                 # multiplier images frozen per base set
POOL_SEED = "perfbench-pool-v1"


def coset_reps(n, q):
    """Smallest member of each q-cyclotomic coset mod n, in ascending order."""
    seen, reps = set(), []
    for a in range(n):
        if a in seen:
            continue
        reps.append(a)
        b = a
        while b not in seen:
            seen.add(b)
            b = b * q % n
    return reps


def _closure(members, n, q):
    out = set()
    for a in members:
        b = a % n
        while b not in out:
            out.add(b)
            b = b * q % n
    return out


def _argv(command, n, q, reps, *flags):
    return [command, "--n", str(n), "--q", str(q),
            "--defining-set", "coset:" + ",".join(map(str, reps)), "--json",
            *flags]


def images(n, q, reps):
    """Coset reps of the first IMAGES distinct sets a*D, a = 1, 2, ..."""
    seen, out = [], []
    for a in range(1, n):
        if math.gcd(a, n) != 1:
            continue
        image = _closure([a * r for r in reps], n, q)
        if image not in seen:
            seen.append(image)
            out.append([r for r in coset_reps(n, q) if r in image])
            if len(out) == IMAGES:
                break
    return out


def _random_bases(name, lengths, sizes):
    rng = random.Random(f"{POOL_SEED}:{name}")
    return [(n, q, sorted(rng.sample(coset_reps(n, q)[1:], rng.choice(sizes))))
            for n, q in lengths]


def pools():
    """{workload: [(kind, [argv of each image]), ...]}, one entry per base."""
    spectra = _random_bases("spectra", SPECTRA_LENGTHS, (SPECTRA_COSETS,))
    certify = list(CERTIFY_ANCHORS) + _random_bases(
        "certify", CERTIFY_LENGTHS, (1, 2, 3))
    return {
        "spectra": [("analyze", [_argv("analyze", n, q, r)
                                 for r in images(n, q, reps)])
                    for n, q, reps in spectra],
        "distance": [("mindist", [_argv("mindist", n, q, r)
                                  for r in images(n, q, reps)])
                     for n, q, reps in MINDIST_CODES],
        "certify": [("certify", [_argv("analyze", n, q, r, "--certify")
                                 for r in images(n, q, reps)])
                    for n, q, reps in certify],
    }


def frozen_argvs():
    """Every command line whose answer expected.json must hold."""
    out = [argv for entries in pools().values()
           for _kind, argvs in entries for argv in argvs]
    return out + [line.split() for line in FORGE_JOBS]


def _cli(kind, argv):
    return {"kind": kind, "argv": list(argv)}


def _roundtrips(rng, count):
    jobs = []
    for n, q in ROUNDTRIP_LENGTHS:
        for _ in range(count):
            word = [rng.randrange(q) for _ in range(n)]
            word[rng.randrange(n)] = 1  # never the zero word
            jobs.append({"kind": "roundtrip", "n": n, "q": q, "word": word})
    return jobs


def job_list(workload, seed, quick=False):
    """The seeded job list of one workload; quick gives a tiny list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    entries = pools()[workload]
    if workload == "certify":
        # quick: no n=127 search, two pooled lengths
        entries = entries[2:4] if quick else entries
    elif quick:
        entries = entries[-1:] if workload == "distance" else entries[:1]
    jobs = [_cli(kind, rng.choice(argvs)) for kind, argvs in entries]
    if workload == "spectra":
        jobs += _roundtrips(rng, 1 if quick else ROUNDTRIP_WORDS)
    elif workload == "distance":
        tables = ("n15",) if quick else TABLE_IDS
        jobs += [_cli("reproduce", ["reproduce", t]) for t in tables]
    else:
        jobs += [_cli("forge", line.split()) for line in FORGE_JOBS
                 if not quick or "127" not in line]
    return jobs
