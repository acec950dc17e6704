"""Suite-wide pytest configuration."""


def pytest_addoption(parser):
    parser.addoption(
        "--refresh-golden",
        action="store_true",
        default=False,
        help="regenerate the golden fixtures (tests/*/golden/, including "
        "the paper exhibits in tests/experiments/golden/) instead of "
        "checking against them",
    )
