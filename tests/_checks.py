"""The oracle's checks as tests, each over its full declared range.

Every exhaustive claim is checked once, by its check in `oracle.SUITES`;
a test calls the check instead of re-typing its loop."""

from functools import cache

from dyckab.oracle import SUITES

# check name -> (declared semilengths, or None for fixed objects; check)
DECLARED = {
    name: (sizes, check) for checks in SUITES.values() for name, sizes, check in checks
}


@cache  # a check that held runs once per session, however many tests name it
def assert_check_holds(name):
    """Run the named check over its declared range; a failure shows the
    counterexample."""
    sizes, check = DECLARED[name]
    counterexample = check(sizes)
    assert counterexample is None, f"{name}: {counterexample}"


def declared_range_test(*names):
    """A test that asserts each named check holds on its declared range."""

    def test():
        for name in names:
            assert_check_holds(name)

    return test
