"""Host calibration for the ``machine.*`` metrics: the denominators of
``execution.roofline_frac``.

Measured with the same tool the engine is built from — NumPy ufuncs on
float32 — so the ceilings are what a NumPy stencil can reach on this host,
not the hardware's data-sheet peak:

* ``machine.triad_gbs`` — ``a = b + s*c`` as two ufunc passes (NumPy has no
  fused triad), counted as the five array transfers those passes make;
* ``machine.copy_gbs`` — ``np.copyto``, two transfers;
* ``machine.ufunc_gflops`` — multiply/add pairs on arrays resident in L2,
  the best of three sizes.

Each streaming array is ``max(4 x LLC, 256 MiB)``, capped so that three of
them fit in a quarter of ``MemAvailable`` and by ``--cap-mib``.  The cap
exists because this class of VM faults fresh pages at ~0.3 GB/s: the rule
size on a host that reports a 260 MiB shared L3 costs 11 s of first touch,
more than a traced run can spend.  Both sizes are printed and emitted
(``machine.llc_bytes``, ``machine.calib_array_bytes``) so a reader can see
whether the 4 x LLC rule was met.  The first-touch pass is excluded from
every timing.

Run directly: ``python benchmarks/stack/calibrate.py [--cap-mib N]``
(``--cap-mib 0`` lifts the cap).  Prints one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

MIB = 1024 * 1024
DEFAULT_CAP_MIB = 256
LLC_PATH = "/sys/devices/system/cpu/cpu0/cache/index3/size"
FALLBACK_LLC_BYTES = 32 * MIB


def llc_bytes() -> int:
    try:
        text = open(LLC_PATH).read().strip()
    except OSError:
        return FALLBACK_LLC_BYTES
    scale = {"K": 1024, "M": MIB, "G": 1024 * MIB}.get(text[-1].upper())
    return int(text[:-1]) * scale if scale else int(text)


def mem_available_bytes() -> int:
    try:
        for line in open("/proc/meminfo"):
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 4 * 1024 * MIB


def array_bytes(cap_mib: int) -> int:
    size = max(4 * llc_bytes(), 256 * MIB)
    size = min(size, mem_available_bytes() // 4 // 3)
    if cap_mib > 0:
        size = min(size, cap_mib * MIB)
    return size // 4 * 4


def _timed(fn, reps: int) -> float:
    """Median wall seconds of *fn* over *reps* calls."""
    durs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        durs.append(time.perf_counter() - t0)
    return statistics.median(durs)


def calibrate(cap_mib: int = DEFAULT_CAP_MIB, reps: int = 5) -> dict:
    nbytes = array_bytes(cap_mib)
    n = nbytes // 4
    a = np.empty(n, np.float32)
    b = np.empty(n, np.float32)
    c = np.empty(n, np.float32)
    for arr, v in ((a, 0.0), (b, 1.0), (c, 2.0)):  # first touch, untimed
        arr.fill(v)

    def triad():
        np.multiply(c, np.float32(3.0), out=a)
        np.add(a, b, out=a)

    triad_s = _timed(triad, reps)
    copy_s = _timed(lambda: np.copyto(a, b), reps)
    del a, b, c

    # per-call overhead dominates small arrays and L2 misses large ones, so
    # the flop ceiling is the best of a few L2-resident sizes (three arrays)
    ufunc_gflops = 0.0
    for m in (16384, 32768, 65536):
        x = np.full(m, 1.0001, np.float32)
        y = np.full(m, 0.9999, np.float32)
        z = np.empty(m, np.float32)
        inner = 4_000_000 // m

        def ufuncs():
            for _ in range(inner):
                np.multiply(x, y, out=z)
                np.add(z, y, out=z)

        ufunc_gflops = max(ufunc_gflops, 2 * m * inner / _timed(ufuncs, reps) / 1e9)
    return {
        "machine.triad_gbs": {"value": 5 * nbytes / triad_s / 1e9, "unit": "GB/s"},
        "machine.copy_gbs": {"value": 2 * nbytes / copy_s / 1e9, "unit": "GB/s"},
        "machine.ufunc_gflops": {"value": ufunc_gflops, "unit": "GFLOP/s"},
        "machine.llc_bytes": {"value": llc_bytes(), "unit": "B"},
        "machine.calib_array_bytes": {"value": nbytes, "unit": "B"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cap-mib", type=int, default=DEFAULT_CAP_MIB,
                    help="upper bound on each streaming array (0 = none)")
    args = ap.parse_args(argv)
    out = calibrate(args.cap_mib)
    for name, m in out.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
