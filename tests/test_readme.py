"""The values the README's library quick start quotes are what the code returns."""
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_quick_start_values():
    block = README.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    # each "name = call(...)  # Type(value=-0.0944...)" line quotes its value rounded
    quoted = re.findall(r"^(\w+)\s*=.*#\s*\w+\(value=(-?[\d.]+)\.\.\.", code, re.M)
    assert [name for name, _ in quoted] == ["fc", "fl", "s"]
    namespace = {}
    exec(code, namespace)
    for name, prefix in quoted:
        digits = len(prefix.split(".")[1])
        assert round(namespace[name].value, digits) == float(prefix), (name, namespace[name].value)
        assert namespace[name].estimate.converged, name
