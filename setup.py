"""Packaging for the NeuroHammer reproduction library.

Kept as a classic ``setup.py`` (rather than ``pyproject.toml``) so that
``pip install -e .`` works in fully offline environments where the ``wheel``
package (needed for PEP 660 editable installs) is unavailable.
"""

from pathlib import Path

from setuptools import find_packages, setup

README = Path(__file__).with_name("README.md")

setup(
    name="neurohammer-repro",
    version="1.18.0",
    description=(
        "Reproduction of 'NeuroHammer: Inducing Bit-Flips in Memristive "
        "Crossbar Memories' (DATE 2022): electro-thermal crossbar simulation, "
        "attack engine, campaign runner and figure regeneration."
    ),
    long_description=README.read_text(encoding="utf-8") if README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    # scipy powers the sparse LU nodal solver and the FFT crosstalk operator.
    install_requires=["numpy>=1.20", "scipy>=1.8"],
    extras_require={
        "test": ["pytest>=7", "pytest-benchmark>=4", "hypothesis>=6"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3 :: Only",
        "Topic :: Scientific/Engineering",
        "Topic :: Security",
    ],
)
