"""Suite-wide pytest configuration."""


def pytest_addoption(parser):
    parser.addoption(
        "--refresh-golden",
        action="store_true",
        default=False,
        help="regenerate the golden regression fixtures under "
        "tests/sim/golden/ and tests/model/golden/ instead of checking "
        "against them",
    )
