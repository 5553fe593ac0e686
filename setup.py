"""Packaging for the `repro` package under ``src/``.

There is no pyproject.toml; this file is the project metadata, and
`pip install -e .` gives an importable `repro` and the `repro` command.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
