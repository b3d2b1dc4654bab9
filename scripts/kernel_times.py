#!/usr/bin/env python3
"""Best-of-N CPU times of the bag layer's numpy kernels, per gallery op.

For each named gallery hypergraph at levels 0 and 1 and k = 2 and 3,
the script builds the op's inputs once and times, in raw CPU
milliseconds (``time.process_time``, the best of ``--repeats`` calls),
each kernel the op runs:

- ``_separator_unions`` and ``_component_entries`` (level 0; level 1
  reuses them);
- ``_cover_unions`` of the level-1 pool (level 1; at level 0 the cover
  unions are the separator unions);
- ``_intersections``, the bag step: component unions times cover unions;
- ``candidate_index`` of the bag set, as the block search builds it;
- ``_any_balanced``, the balanced-bag check, over every candidate bag
  and the first connected component.

It prints one JSON object: ``{"repeats": N, "ms": {"H3 L0 k=2":
{kernel: ms, ...}, ...}}``.  Run from the repository root:

    PYTHONPATH=src python3 scripts/kernel_times.py --repeats 21
"""

import argparse
import json
import time

from softdecomp import gallery
from softdecomp.bags import (
    DEFAULT_MAX_STEPS, _any_balanced, _component_entries, _cover_unions, _intersections,
    _next_pool, _separator_unions, candidate_index, iterate_level, soft_bags,
)


def best_ms(call, repeats):
    """The least CPU time of ``repeats`` calls of ``call()``, in ms."""
    times = []
    for _ in range(repeats):
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return round(1000 * min(times), 4)


def op_times(h, level, k, repeats):
    """``{kernel: ms}`` for one op: ``h`` at ``level`` (0 or 1) and ``k``."""
    out = {}
    bags = soft_bags(h, k)  # level 1 keeps level 0's component entries
    if level == 0:
        seps = _separator_unions(h, k, DEFAULT_MAX_STEPS)
        out["_separator_unions"] = best_ms(
            lambda: _separator_unions(h, k, DEFAULT_MAX_STEPS), repeats)
        out["_component_entries"] = best_ms(lambda: _component_entries(h, seps), repeats)
        covers = seps[1:]
    else:
        pool, _ = _next_pool(bags)
        covers = _cover_unions(pool, k, DEFAULT_MAX_STEPS)
        out["_cover_unions"] = best_ms(lambda: _cover_unions(pool, k, DEFAULT_MAX_STEPS), repeats)
        bags = iterate_level(bags)
    unions = [union for union, _ in bags.components]
    out["_intersections"] = best_ms(lambda: _intersections(unions, covers), repeats)
    out["candidate_index"] = best_ms(lambda: candidate_index(h.n_vertices, bags), repeats)
    _, _, arr = candidate_index(h.n_vertices, bags)
    c = h.vertex_components(0)[0]
    out["_any_balanced"] = best_ms(lambda: _any_balanced(h, arr, c), repeats)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=21, help="calls per kernel (best of)")
    parser.add_argument("--graphs", nargs="+", default=["H3", "H3prime"],
                        help="gallery names (default: H3 H3prime)")
    args = parser.parse_args()
    ms = {}
    for name in args.graphs:
        h = gallery(name).hypergraph
        for level in (0, 1):
            for k in (2, 3):
                ms[f"{name} L{level} k={k}"] = op_times(h, level, k, args.repeats)
    print(json.dumps({"repeats": args.repeats, "ms": ms}))


if __name__ == "__main__":
    main()
