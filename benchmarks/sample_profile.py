"""A wall-clock stack sampler for one marpbench pass.

cProfile charges every Python call a hook, so call-heavy code (small
constructors, ``__hash__``, one-line callbacks) looks about three times
dearer under it than it runs. This sampler instead reads the stack of
every other thread with ``sys._current_frames()`` every ``--interval``
ms while one untraced pass runs (after a set-up-only pass has done the
imports), and reports, over all samples:

* **leaf** — share of samples in which the function was executing
  (its self time);
* **cum** — share of samples in which it was anywhere on the stack
  (each function counted once per sample);
* **generated __init__ by class** — dataclass-generated constructors
  all share one name and no file, so their leaf and cumulative shares
  are attributed to the class being built;
* **cyclic collector** — passes and wall ms per generation, and their
  share of the pass, timed by a ``gc.callbacks`` hook. Neither this
  sampler nor cProfile shows the collector as a frame of its own: its
  time lands on whichever frame allocated when a pass began.

Stdlib only; a sample is taken whenever the sampler thread gets the GIL,
so the switch interval is lowered to the sampling interval for the run.

    python benchmarks/sample_profile.py --workload marp_tour_n80 --seed 1000
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import threading
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
MARPBENCH = os.path.join(HERE, "marpbench")
for _path in (SRC, MARPBENCH):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def _label(frame) -> str:
    """``file:line(qualname)`` of a frame's function; a generated
    ``__init__`` is named by the class of its ``self``."""
    code = frame.f_code
    name = getattr(code, "co_qualname", code.co_name)
    if code.co_filename.startswith("<") and code.co_name == "__init__":
        owner = frame.f_locals.get("self")
        return f"generated {type(owner).__name__}.__init__"
    path = code.co_filename
    for root in (SRC, REPO, sys.prefix):
        if path.startswith(root):
            path = os.path.relpath(path, root)
            break
    return f"{path}:{code.co_firstlineno}({name})"


class Sampler:
    """Samples every thread but its own until :meth:`stop`."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples = 0
        self.leaf: Counter = Counter()
        self.cumulative: Counter = Counter()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._done.set()
        self._thread.join()

    def _run(self) -> None:
        me = threading.get_ident()
        while not self._done.wait(self.interval_s):
            for ident, frame in sys._current_frames().items():
                if ident == me:
                    continue
                self.samples += 1
                self.leaf[_label(frame)] += 1
                seen = set()
                while frame is not None:
                    seen.add(_label(frame))
                    frame = frame.f_back
                self.cumulative.update(seen)


class CollectorLog:
    """Passes of the cyclic collector and their wall time, per
    generation, while installed in ``gc.callbacks``."""

    def __init__(self) -> None:
        self.passes: Counter = Counter()
        self.seconds: Counter = Counter()
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        else:
            generation = info["generation"]
            self.passes[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._began

    def __enter__(self) -> "CollectorLog":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self)

    def report(self, wall_s: float) -> str:
        total_ms = 1e3 * sum(self.seconds.values())
        lines = [
            "",
            f"cyclic collector: {sum(self.passes.values())} passes, "
            f"{total_ms:.1f} ms, {100.0 * total_ms / 1e3 / wall_s:.1f} % "
            "of the pass",
        ]
        for generation in sorted(self.passes):
            ms = 1e3 * self.seconds[generation]
            lines.append(
                f"  gen {generation}: {self.passes[generation]:6d} passes "
                f"{ms:9.1f} ms {100.0 * ms / 1e3 / wall_s:6.1f} %"
            )
        return "\n".join(lines)


def _report(sampler: Sampler, top: int) -> str:
    total = max(1, sampler.samples)
    lines = [f"{sampler.samples} samples"]

    def table(title, keys):
        lines.append("")
        lines.append(f"{'leaf %':>7} {'cum %':>7}  {title}")
        for key in keys:
            lines.append(
                f"{100.0 * sampler.leaf[key] / total:7.1f} "
                f"{100.0 * sampler.cumulative[key] / total:7.1f}  {key}"
            )

    table("by leaf share", [key for key, _n in sampler.leaf.most_common(top)])
    table("by cumulative share",
          [key for key, _n in sampler.cumulative.most_common(top)])
    generated = [
        key for key, _n in sampler.cumulative.most_common()
        if key.startswith("generated ")
    ]
    if generated:
        table("generated __init__ by class", generated)
        lines.append(
            f"{100.0 * sum(sampler.leaf[k] for k in generated) / total:7.1f}"
            "          all generated __init__ (leaf)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="marp_tour_n80")
    parser.add_argument("--seed", type=int, default=1000,
                        help="sub-seed of the pass (as run.py --child pass)")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--interval", type=float, default=1.0,
                        help="sampling interval in ms")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)

    from workloads import run_pass, run_setup_only

    # Imports and the first config build happen before sampling starts,
    # so the shares are shares of the pass, not of module loading.
    run_setup_only(args.workload, args.seed, time.perf_counter())
    sys.setswitchinterval(min(sys.getswitchinterval(), args.interval / 1e3))
    t0 = time.perf_counter()
    with CollectorLog() as collector:
        sampler = Sampler(args.interval / 1e3).start()
        try:
            result = run_pass(
                args.workload, args.seed, args.scale, t0, traced=False
            )
        finally:
            sampler.stop()
    wall = time.perf_counter() - t0
    print(f"{args.workload} sub-seed {args.seed}: {wall:.2f} s wall, "
          f"problems: {result.get('problems') or 'none'}")
    print(_report(sampler, args.top))
    print(collector.report(wall))
    return 0


if __name__ == "__main__":
    sys.exit(main())
