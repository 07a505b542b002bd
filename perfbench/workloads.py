"""The four benchmark workloads: inputs from a seed, timed operations, checks.

A workload hands the runner batches of items.  An item is one timed call
into gapcert (one latency sample) that completes ``ops`` operations, plus
a check that names what came out wrong: one label per failed operation.
Batches are the unit a run stops on, so every batch has the same
composition and a run never ends on a skewed partial mix.  Inputs come
from ``random.Random`` streams seeded by the run seed; the library only
ever sees the generated inputs.

Each workload lives in its own module (wl_suite, wl_certs, wl_cli) that
imports only the gapcert modules it calls, and is imported by ``load``
only once the set-up clock runs.  A workload's ``known_defects`` maps the
failure labels of defects present when the benchmark was defined to
their explanation; such failures count in ``failed`` like any other, but
only a failure outside that map makes a run incorrect.

Library functions are looked up on their module at call time, so the
tracer's rebinding of module attributes is seen by the timed calls.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Any, Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# workload name -> (module, class)
WORKLOADS = {
    "suite": ("wl_suite", "SuiteWorkload"),
    "gate": ("wl_suite", "GateWorkload"),
    "certs": ("wl_certs", "CertsWorkload"),
    "cli": ("wl_cli", "CliWorkload"),
}


@dataclass
class Item:
    """One timed call: ``run()`` is timed, ``check(result)`` labels the bad operations."""

    run: Callable[[], Any]
    ops: int
    check: Callable[[Any], list[str]]


def load(name: str):
    """A fresh instance of the named workload; imports its module, and so gapcert."""
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)()
