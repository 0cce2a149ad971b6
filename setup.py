"""Package metadata for ``repro``, the Bifrost reproduction.

All metadata lives here; there is no pyproject.toml.  Without the
``wheel`` package, PEP 660 editable installs are unavailable, and
``pip install -e .`` falls back to ``setup.py develop``.  Installing puts
the ``repro`` command on the PATH.
"""

from pathlib import Path

from setuptools import find_packages, setup

_version: dict = {}
exec((Path(__file__).parent / "src" / "repro" / "version.py").read_text(), _version)

setup(
    name="repro",
    version=_version["__version__"],
    description="Bifrost: end-to-end evaluation and optimization of "
    "reconfigurable DNN accelerators (reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
