"""Unit tests for repro.core.taxonomy."""

from repro.apps.clients import ClientReport
from repro.core.taxonomy import ErrorOutcome, classify_outcome, validate_taxonomy


def report(**kwargs) -> ClientReport:
    base = ClientReport(attempted=100, correct=100)
    for key, value in kwargs.items():
        setattr(base, key, value)
    return base


class TestClassification:
    def test_crash_on_fatal(self):
        outcome = classify_outcome(report(fatal=True), consumed=True, overwritten=False)
        assert outcome is ErrorOutcome.CRASH

    def test_crash_on_failure_majority(self):
        session = report(correct=40, failed=60)
        assert classify_outcome(session, True, False) is ErrorOutcome.CRASH

    def test_incorrect_below_crash_threshold(self):
        session = report(correct=90, incorrect=10)
        assert classify_outcome(session, True, False) is ErrorOutcome.INCORRECT

    def test_failed_requests_count_as_incorrect(self):
        session = report(correct=95, failed=5)
        assert classify_outcome(session, True, False) is ErrorOutcome.INCORRECT

    def test_masked_by_logic(self):
        assert (
            classify_outcome(report(), consumed=True, overwritten=False)
            is ErrorOutcome.MASKED_LOGIC
        )

    def test_masked_by_overwrite(self):
        assert (
            classify_outcome(report(), consumed=False, overwritten=True)
            is ErrorOutcome.MASKED_OVERWRITE
        )

    def test_masked_never_accessed(self):
        assert (
            classify_outcome(report(), consumed=False, overwritten=False)
            is ErrorOutcome.MASKED_NEVER_ACCESSED
        )


class TestTaxonomyProperties:
    def test_masked_vulnerable_partition(self):
        for outcome in ErrorOutcome:
            assert outcome.is_masked != outcome.is_vulnerable

    def test_vulnerable_members(self):
        assert ErrorOutcome.CRASH.is_vulnerable
        assert ErrorOutcome.INCORRECT.is_vulnerable
        assert ErrorOutcome.MASKED_LOGIC.is_masked
        assert ErrorOutcome.MASKED_OVERWRITE.is_masked
        assert ErrorOutcome.MASKED_NEVER_ACCESSED.is_masked

    def test_validate_counts_all_members(self):
        counts = validate_taxonomy([ErrorOutcome.CRASH, ErrorOutcome.CRASH])
        assert counts[ErrorOutcome.CRASH] == 2
        assert counts[ErrorOutcome.INCORRECT] == 0
        assert len(counts) == len(ErrorOutcome)


class TestClientReport:
    def test_crash_rule_exact_threshold(self):
        session = ClientReport(attempted=10, correct=5, failed=5)
        assert session.crashed()  # >= threshold

    def test_no_crash_when_nothing_attempted(self):
        assert not ClientReport().crashed()

    def test_incorrect_fraction(self):
        session = ClientReport(attempted=20, correct=15, incorrect=5)
        assert session.incorrect_fraction == 0.25
        assert session.responded == 20
