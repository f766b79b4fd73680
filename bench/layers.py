"""Per-layer attribution of traced requests from the shim's spans.

A request's spans are the subtree under its root: ``cli.main`` for a
CLI process, ``cm.daemon.request`` for one daemon request.  Layer times
are the union of the layer's span intervals (inclusive of what the
layer calls); self times subtract the union of the span's children.
Compile work done in pool workers is taken from the ``BuildReport``
attributes the shim attached to each ``cm.build`` span.
"""

from __future__ import annotations

from collections import defaultdict

from bench.stats import median, self_time, union_length

PHASES = ("parse", "elaborate", "hash", "dehydrate")


class SpanTree:
    """The spans of one shim dump, with child lists."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for index, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(index)

    def named(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def subtree(self, root: int) -> list[int]:
        out, stack = [], [root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(self.children[node])
        return out

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def interval(self, index: int) -> tuple[float, float]:
        return self.spans[index][1], self.spans[index][2]

    def self_time(self, index: int) -> float:
        start, end = self.interval(index)
        return self_time(start, end,
                         [self.interval(c) for c in self.children[index]])


def request_layers(tree: SpanTree, root: int, wall: float,
                   startup: float = 0.0, wire: float = 0.0,
                   cascade_size: int = 0) -> dict[str, float | None]:
    """Every per-layer value of one request (None where a ratio has no
    base).  ``wall`` is what the client measured; ``startup`` (spawn
    to ``main``) and ``wire`` (daemon round trip minus the reply's own
    ``wall_seconds``) are measured by the client, outside any span."""
    members = tree.subtree(root)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index in members:
        by_name[tree.spans[index][0]].append(index)

    def seconds(*names: str) -> float:
        return union_length([tree.interval(i)
                             for name in names for i in by_name[name]])

    def attr_sum(name: str, key: str) -> float:
        return sum((tree.spans[i][4] or {}).get(key, 0)
                   for i in by_name[name])

    builds = [(i, tree.spans[i][4]) for i in by_name["cm.build"]
              if tree.spans[i][4]]
    compiled = {n for _i, b in builds for n in b["compiled"]}
    on_workers = [b for _i, b in builds if b["pool"] == "process"]
    worker = {p: sum(b["phases"][p] for b in on_workers) for p in PHASES}
    parallel = [(i, b) for i, b in builds if b["jobs"] > 1]
    busy = sum(sum(b["phases"].values()) for _i, b in parallel)
    capacity = sum(b["jobs"] * (tree.spans[i][2] - tree.spans[i][1])
                   for i, b in parallel)
    shipped = [b for _i, b in builds if b["pool"] != "serial"]
    decided = sum(b["decided"] for _i, b in builds)
    hits = sum(b["loaded"] + b["cached"] for _i, b in builds)

    rehydrated = {(tree.spans[i][4] or {}).get("unit")
                  for i in by_name["units.pipeline.rehydrate"]} - compiled
    closure = {n for _i, b in builds for n in b["closure"]}

    root_name = tree.spans[root][0]
    daemon_self = 0.0
    if root_name == "cm.daemon.request":
        start, end = tree.interval(root)
        daemon_self = self_time(start, end,
                                [tree.interval(i) for i, _b in builds])

    covered = union_length([tree.interval(i) for i in members])
    return {
        "cli.startup_s": startup,
        "cli.main.self_s": (tree.self_time(root)
                            if root_name == "cli.main" else 0.0),
        "cm.depend.analyze_s": seconds("cm.depend.analyze"),
        "cm.depend.sources_parsed": sum(
            1 for i in by_name["lang.parser.parse"]
            if tree.has_ancestor(i, "cm.depend.analyze")),
        "cm.store.load_s": seconds("cm.store.load"),
        "cm.store.records_read": attr_sum("cm.store.load", "records"),
        "cm.store.bytes_read": attr_sum("cm.store.load", "bytes"),
        "cm.store.save_s": seconds("cm.store.save"),
        "cm.store.records_written": attr_sum("cm.store.save", "records"),
        "cm.store.bytes_written": attr_sum("cm.store.save", "bytes"),
        "cm.store.hit_ratio": hits / decided if decided else None,
        "cm.decide_s": seconds("cm.decide", "cm.explain"),
        "cm.decide_calls": len(by_name["cm.decide"]),
        "cm.build.self_s": sum(tree.self_time(i)
                               for i in by_name["cm.build"]),
        "cm.cutoff.recompile_ratio": (len(compiled) / cascade_size
                                      if cascade_size else None),
        "units.pipeline.compile_s": (seconds("units.pipeline.compile")
                                     + sum(worker.values())),
        "units.pipeline.compile_calls": (
            len(by_name["units.pipeline.compile"])
            + sum(len(b["compiled"]) for b in on_workers)),
        "lang.parser.parse_s": (seconds("lang.parser.parse")
                                + worker["parse"]),
        "elab.elaborate_s": seconds("elab.elaborate") + worker["elaborate"],
        "pids.hash_s": seconds("pids.hash") + worker["hash"],
        "pickle.dehydrate_s": (seconds("pickle.dehydrate")
                               + worker["dehydrate"]),
        "pickle.bytes_out": (attr_sum("pickle.dehydrate", "bytes")
                             + sum(b["compiled_bytes"] for b in on_workers)),
        "units.pipeline.rehydrate_s": seconds("units.pipeline.rehydrate"),
        "units.pipeline.rehydrate_calls": len(
            by_name["units.pipeline.rehydrate"]),
        "pickle.bytes_in": attr_sum("units.pipeline.rehydrate", "bytes"),
        "units.pipeline.rehydrate_useful_ratio": (
            len(rehydrated & closure) / len(rehydrated)
            if rehydrated else None),
        "cm.parallel.pool_start_s": seconds("cm.parallel.pool_start"),
        "cm.parallel.worker_busy_s": busy,
        "cm.parallel.busy_ratio": busy / capacity if capacity else None,
        "cm.parallel.parent_wait_s": union_length(
            [tree.interval(i) for i in by_name["cm.parallel.wait"]
             if not tree.has_ancestor(i, "cm.parallel.pool_start")]),
        "cm.parallel.closure_units": sum(b["closure_units"]
                                         for b in shipped),
        "cm.parallel.closure_bytes": sum(b["closure_bytes"]
                                         for b in shipped),
        "linker.link_s": seconds("linker.link"),
        "obs.history.record_s": seconds("obs.history.record"),
        "cm.daemon.request_s": seconds("cm.daemon.request"),
        "cm.daemon.self_s": daemon_self,
        "cm.daemon.wire_s": wire,
        "bench.unattributed_s": wall - startup - wire - covered,
    }


def summarize(requests: list[dict]) -> dict[str, float]:
    """Median per request of every layer value; a ratio that never had
    a base reads 0."""
    names = requests[0].keys() if requests else ()
    out = {}
    for name in names:
        values = [r[name] for r in requests if r[name] is not None]
        out[name] = median(values) if values else 0.0
    return out
