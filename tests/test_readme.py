"""The README cannot drift from the code: its quick start runs and prints
what it promises, its claims table names exactly the rows of the claims
tables, and its module list names exactly the package's modules."""

import contextlib
import io
import pkgutil
import re
from pathlib import Path

import accelcert
from accelcert.analysis import CONTINUOUS, ENERGIES, THEOREMS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title: str) -> str:
    """The text under the ``## title`` heading, up to the next one."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_quick_start_prints_true_twice():
    block, = re.findall(r"```python\n(.*?)```", section("Quick start"),
                        re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quick start", "exec"), {})
    assert out.getvalue() == "True\nTrue\n"


def test_claims_table_names_exactly_the_rows():
    rows = re.findall(r"^\| `([^`]+)` \| `([A-Z]+)` \| ([^|]+) \|",
                      section("The schemes and their claims"), re.MULTILINE)
    tables = {"THEOREMS": THEOREMS, "ENERGIES": ENERGIES,
              "CONTINUOUS": {"continuous": CONTINUOUS}}
    listed = {(table, name): tuple(m.strip() for m in methods.split(","))
              for name, table, methods in rows}
    assert len(listed) == len(rows) == 8
    assert listed == {(table, name): claim.methods
                      for table, rows_of in tables.items()
                      for name, claim in rows_of.items()}


def test_module_list_names_exactly_the_modules():
    listed = re.findall(r"^- `accelcert\.(\w+)`:", section("Modules"),
                        re.MULTILINE)
    modules = [m.name for m in pkgutil.iter_modules(accelcert.__path__)]
    assert sorted(listed) == sorted(modules)
    assert len(set(listed)) == len(listed)
