"""README's opening module list names exactly the package's modules."""

import os
import pkgutil
import re

import blockmdm

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_module_list_matches_package():
    with open(README, encoding="utf-8") as f:
        opening = f.read().split("\n## ", 1)[0]
    listed = re.findall(r"\(`blockmdm\.(\w+)`\)", opening)
    modules = {m.name for m in pkgutil.iter_modules(blockmdm.__path__)} - {"__main__"}
    assert len(listed) == len(set(listed)) and set(listed) == modules, (sorted(listed), sorted(modules))
