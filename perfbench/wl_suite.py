"""`suite` and `gate`: run_suite over a dimension ladder of the standard mix."""

from __future__ import annotations

import hashlib
import random

from gapcert import matrix_lab

from workloads import Item

# Dimensions of the standard suite (4..40), one run_suite call per rung.
# Fixing the rungs keeps the per-batch cost mix identical from seed to seed
# while the instances themselves are fresh.
LADDER = (4, 10, 16, 22, 28, 34, 40)
# Smallest count for which standard_suite_specs yields all seven kinds.
SUITE_BATCH = 20
CORE_CHECKS = frozenset(
    {"eig-sanity", "hyperbola", "strip", "resolvent-offreal", "resolvent-strip", "refined-le-plain"}
)
KIND_CHECKS = {
    "symmetric": {"numrange-window"},
    "probe": {"balls"},
    "offdiag": {"structured-offdiag"},
    "even": {"structured-even"},
    "diag-blocks": {"structured-odd"},
}
# Checks whose claimed region the widen option enlarges.
WIDEN_SENSITIVE = frozenset(
    {"strip", "eig-count", "structured-offdiag", "structured-even", "structured-odd"}
)
GATE_WIDEN = 0.10


def _report_problem(report, widened: bool) -> str | None:
    """What is wrong with the report for its option set, if anything."""
    kind = report.instance.rsplit("-", 1)[0]
    names = {c.check for c in report.checks}
    if not (CORE_CHECKS | KIND_CHECKS.get(kind, set())) <= names:
        return f"{kind}: expected check missing"
    failed = {c.check for c in report.checks if not c.passed}
    if not widened:
        return f"{kind}: check failed with default options" if failed else None
    if not failed <= WIDEN_SENSITIVE:
        return f"{kind}: widening failed a check it does not enlarge"
    # a probe sits on the strip boundary, so the widened strip must catch it
    if kind == "probe" and "strip" not in failed:
        return "probe: widened strip passed the boundary probe"
    return None


class SuiteWorkload:
    """`gapcert verify` traffic: each instance verified once, default options."""

    name = "suite"
    known_defects: dict[str, str] = {}
    option_sets = ((False, matrix_lab.VerifyOptions()),)

    def __init__(self) -> None:
        self.csv_digest = hashlib.sha256()

    def notes(self) -> dict:
        """sha256 of the to_csv() text of the run's first batch, for byte-identity checks."""
        return {"csv_sha256": self.csv_digest.hexdigest()}

    def batch(self, rng: random.Random, record: bool = False) -> list[Item]:
        items = []
        for dim in LADDER:
            seed = rng.randrange(2**31 - 1)
            for widened, options in self.option_sets:
                items.append(self._item(dim, seed, widened, options, record))
        return items

    def _item(self, dim, seed, widened, options, record) -> Item:
        def run():
            return matrix_lab.run_suite(SUITE_BATCH, dim, dim, seed, options)

        def check(result) -> list[str]:
            if record:
                self.csv_digest.update(result.to_csv().encode())
            bad = [p for p in (_report_problem(r, widened) for r in result.reports) if p]
            return bad + ["instance missing from the report"] * (SUITE_BATCH - len(result.reports))

        return Item(run, SUITE_BATCH, check)


class GateWorkload(SuiteWorkload):
    """Acceptance-gate traffic: every instance set plain, then widened by 10 %."""

    name = "gate"
    option_sets = SuiteWorkload.option_sets + ((True, matrix_lab.VerifyOptions(widen=GATE_WIDEN)),)

