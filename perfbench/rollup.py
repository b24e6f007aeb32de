"""Rolls a Chrome trace up into count, total time and self time per span name.

A span's self time is its duration minus the part of it that child spans on
the same thread cover. Spans come from RAII scopes, so on one thread they nest
properly: a child starts no earlier and ends no later than its parent, and
siblings do not overlap. Subtracting each direct child's duration from its
parent therefore subtracts exactly the covered part.
"""

import json


def rollup(events):
    """Returns {name: {"count", "total_us", "self_us"}} for complete ("X")
    events, each a dict with name, tid, ts and dur in microseconds."""
    by_tid = {}
    for e in events:
        if e.get("ph", "X") == "X":
            by_tid.setdefault(e["tid"], []).append(e)
    stats = {}
    for spans in by_tid.values():
        # Parents sort before the children they contain: earlier start
        # first, and of two spans starting together the longer one first.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, stats entry] of the open ancestors
        for e in spans:
            start, dur = e["ts"], e["dur"]
            while stack and stack[-1][0] <= start:
                stack.pop()
            entry = stats.setdefault(
                e["name"], {"count": 0, "total_us": 0.0, "self_us": 0.0})
            entry["count"] += 1
            entry["total_us"] += dur
            entry["self_us"] += dur
            if stack:
                # Clip to the parent: ts and dur are rounded to 1 ns each.
                parent_end, parent = stack[-1]
                parent["self_us"] -= min(start + dur, parent_end) - start
            stack.append([start + dur, entry])
    for entry in stats.values():
        entry["self_us"] = max(entry["self_us"], 0.0)
    return stats


def rollup_file(path):
    with open(path) as f:
        return rollup(json.load(f)["traceEvents"])
