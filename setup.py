"""Setuptools entry point, and the only place project metadata lives.

A plain ``setup.py`` so that ``pip install -e .`` works in offline
environments without the ``wheel`` package (pip then uses the classic
``setup.py develop`` code path).
"""

from setuptools import find_packages, setup

setup(
    name="dataspread-repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Towards a Holistic Integration of Spreadsheets with "
        "Databases' (DataSpread, ICDE 2018)."
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # NumPy runs the decomposition DP's cost tables, the weighted grid and
    # the columnar aggregate build.
    install_requires=["numpy>=1.24"],
)
