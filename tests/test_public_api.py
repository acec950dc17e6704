"""Public-API integrity: every package's ``__all__`` must resolve, and the
top-level convenience surface must work as documented in the README."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.ir",
    "repro.frontend",
    "repro.nn",
    "repro.hw",
    "repro.model",
    "repro.dse",
    "repro.pipeline",
    "repro.sim",
    "repro.verify",
    "repro.codegen",
    "repro.flow",
    "repro.baselines",
    "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} in __all__ but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_docstrings(package):
    module = importlib.import_module(package)
    assert module.__doc__ and len(module.__doc__.strip()) > 40, (
        f"{package} needs a real docstring"
    )


class TestTopLevelSurface:
    def test_readme_flow_example(self):
        import repro

        result = repro.compile_c_source(
            """
            #pragma systolic
            for (o = 0; o < 8; o++)
              for (i = 0; i < 4; i++)
                for (c = 0; c < 5; c++)
                  for (r = 0; r < 5; r++)
                    for (p = 0; p < 2; p++)
                      for (q = 0; q < 2; q++)
                        OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
            """,
            config=repro.DseConfig(min_dsp_utilization=0.0, vector_choices=(2,), top_n=2),
        )
        assert result.throughput_gops > 0

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_models_accessible(self):
        import repro

        assert len(repro.vgg16().conv_layers) == 13
        assert len(repro.alexnet().conv_layers) == 5
