"""README's code blocks, run as written."""

import re
from pathlib import Path

from latentcat.data import cell_labels

from conftest import load_schema_text

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def block(language: str, after: str) -> str:
    """The first ``language`` code block of README after the line ``after``."""
    section = README[README.index(after + "\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs():
    namespace: dict = {}
    exec(block("python", "## Library"), namespace)
    probit = namespace["probit"]
    assert probit.column_names == ("const",)
    assert probit.cutpoints.tolist() == [0.0, 1.0]
    assert 0.0 <= namespace["report"].p_value <= 1.0


def test_readme_schema_block_loads():
    schema = load_schema_text(block("ini", "**Schema** (INI):"))
    assert (schema.x_column, schema.y_column, schema.z_column) == ("ls", "neuro", "ghq")
    assert schema.w_columns == ("degree", "female", "illness", "income", "married")
    assert schema.x_recode == {1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 3}
    assert (schema.z_binning, schema.y_binning) == ("tercile", "median")
    assert cell_labels(5, schema.letters())[0b10110] == "FHM"
