"""The README's code stays runnable against the package."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import hypergroup
from hypergroup import model, training

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(hypergroup.__path__))
# a backticked `[hypergroup.]<module>.<name>[.<attr>]`, optionally called with arguments
REFERENCE = re.compile(rf"(?:hypergroup\.)?({'|'.join(MODULES)})\.(\w+)(?:\.(\w+))?(?:\(.*\))?", re.DOTALL)
# every public class the package defines, by name, and a backticked
# `<Class>.<attr>`, optionally called with arguments
CLASSES = {name: obj for module in MODULES
           for name, obj in vars(importlib.import_module(f"hypergroup.{module}")).items()
           if not name.startswith("_") and isinstance(obj, type) and obj.__module__.startswith("hypergroup.")}
CLASS_REFERENCE = re.compile(rf"({'|'.join(CLASSES)})\.(\w+)(?:\(.*\))?", re.DOTALL)


def test_library_entry_points_import():
    # the import block under "Library entry points": a renamed or removed
    # export fails here instead of leaving the docs stale
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in block
    exec(compile(block, f"{README.name} (Library entry points)", "exec"), {})


def resolves(obj, name: str) -> bool:
    """Whether ``obj`` has ``name``, a dataclass field without a default included."""
    fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
    return hasattr(obj, name) or name in fields


def test_code_references_resolve():
    # every `module.name` and `Class.attr` the prose names exists, so a
    # removed name cannot stay in the docs
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    spans = re.findall(r"`([^`]+)`", prose)
    refs = [m.groups() for m in map(REFERENCE.fullmatch, spans) if m]
    class_refs = [m.groups() for m in map(CLASS_REFERENCE.fullmatch, spans) if m]
    assert refs and class_refs
    missing = []
    for module, name, attr in refs:
        obj = importlib.import_module(f"hypergroup.{module}")
        if not resolves(obj, name) or (attr and not resolves(getattr(obj, name), attr)):
            missing.append(".".join(filter(None, (module, name, attr))))
    missing += [f"{cls}.{attr}" for cls, attr in class_refs if not resolves(CLASSES[cls], attr)]
    assert not missing, f"README names what the package lacks: {missing}"


def test_variant_and_strategy_names_match_the_package():
    # the Variants sentence and the usage block's alternatives list exactly
    # what the package accepts, so a removed variant or flag cannot linger
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"Variants:(.*?)\.\s", text, re.DOTALL).group(1)
    assert re.findall(r"`(\w+)`", sentence) == list(model.VARIANTS)
    usage = text.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    for flag, names in (("--variant", model.VARIANT_FLAGS), ("--strategy", training.STRATEGY_FLAGS)):
        alternatives = re.search(rf"\[{flag} ([\w|-]+)\]", usage).group(1).split("|")
        assert sorted(alternatives) == sorted(names), flag
