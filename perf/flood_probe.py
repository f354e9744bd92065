"""Physical flood through the ``processes`` backend: does it finish?

Run as a subprocess of ``layers.flood_probe`` under a hard kill; exits
0 and prints the offered/written counts when ``pipeline.run`` returns.
The ``__main__`` guard matters: the backend's worker processes import
the main module.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    from repro.pipeline import CollectionPipeline, PipelineConfig, \
        SupervisorConfig
    from repro.workload import SyntheticStreamGenerator, \
        overshoot_config, split_by_vp

    seed, duration_s = int(sys.argv[1]), float(sys.argv[2])
    _, stream = SyntheticStreamGenerator(
        overshoot_config(seed, n_vps=24, duration_s=duration_s)).generate()
    stream.sort(key=lambda u: (u.time, u.vp, u.prefix))
    pipeline = CollectionPipeline(PipelineConfig(
        backend="processes", workers=2, overflow_policy="block",
        supervision=SupervisorConfig(degrade_after_s=None)))
    result = pipeline.run(split_by_vp(stream))
    print(json.dumps({"offered": len(stream),
                      "written": result.metrics.written}))
    return 0 if result.metrics.written == len(stream) else 1


if __name__ == "__main__":
    sys.exit(main())
