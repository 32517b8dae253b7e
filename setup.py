"""Setuptools shim.

The offline environment lacks the ``wheel`` package, so PEP 517 editable
installs fail; this legacy entry point lets ``pip install -e .`` fall
back to ``setup.py develop``.  All metadata lives in ``pyproject.toml``
conceptually; it is mirrored here because the legacy path reads it from
``setup()``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Executable reproduction of 'A Distributed Systems Perspective on "
        "Industrial IoT' (Iwanicki, ICDCS 2018)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={
        "analysis": ["scipy"],
        "test": ["pytest", "pytest-benchmark", "hypothesis", "scipy"],
    },
)
