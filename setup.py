"""Setuptools build script.

The project metadata lives here (the repo has no ``pyproject.toml``).  The
package installs in environments without the ``wheel`` package or PEP 517
build isolation (e.g. fully offline machines) via::

    pip install -e . --no-build-isolation --no-use-pep517
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Average probe complexity in quorum systems' "
        "(Hassin & Peleg, PODC 2001 / JCSS 2006)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
    entry_points={"console_scripts": ["repro-probe = repro.cli:main"]},
)
