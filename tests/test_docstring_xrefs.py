"""Every Sphinx cross-reference to ``repro.*`` in the sources must resolve.

Docstrings name modules, classes and functions with roles such as
``:class:`~repro.core.coloring.Coloring```.  Nothing renders them here, so a
rename or deletion leaves a dangling name that no other test notices.  This
test collects every ``repro.`` target of the ``:mod:``, ``:class:``,
``:func:``, ``:meth:``, ``:attr:``, ``:data:``, ``:exc:`` and ``:obj:``
roles in ``src/**/*.py`` (including the ``Title <target>`` form) and
resolves each part with ``getattr``, importing submodules on the way.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROLE = re.compile(
    r":(?:mod|class|func|meth|attr|data|exc|obj):`(?:[^`<]*<)?~?(repro\.[\w.]+)>?`"
)


def _resolve(target: str) -> object:
    parts = target.split(".")
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=2):
        if not hasattr(obj, attr):
            # A submodule nothing has imported yet is not an attribute.
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, attr)
    return obj


def _references() -> list[tuple[str, str]]:
    return [
        (str(path.relative_to(SRC)), match.group(1))
        for path in sorted(SRC.rglob("*.py"))
        for match in ROLE.finditer(path.read_text(encoding="utf-8"))
    ]


def test_every_repro_cross_reference_resolves():
    references = _references()
    assert len(references) > 100  # the scan itself still finds the roles
    dangling = []
    for source, target in references:
        try:
            _resolve(target)
        except (ImportError, AttributeError) as exc:
            dangling.append(f"{source}: {target} ({exc})")
    assert not dangling, "\n".join(dangling)
