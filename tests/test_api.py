"""The package's public names: those README lists, and no others.

Names that left the package stay on their modules, where the benchmark's
tracer and the tests reach them by module attribute.
"""

import importlib
import re
from pathlib import Path

import bhbounds

README = Path(__file__).resolve().parent.parent / "README.md"

INTERNAL = {
    "poly": ["MultiIndex"],
    "supnorm": ["RefineResult", "refine_local", "torus_grid_max", "torus_lipschitz_bound"],
    "search": [
        "CERTIFICATE_SCHEMA",
        "certificate_from_dict",
        "certificate_to_dict",
        "degree_multi_indices",
        "family_seed_vector",
    ],
}


def readme_api() -> dict[str, list[str]]:
    """Layer -> names, from the bullets of README's "Public API" section."""
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* `(\w+)`:(.*?)(?=^\*|^$)", section, re.M | re.S)
    return {layer: re.findall(r"`(\w+)`", body) for layer, body in bullets}


def test_all_is_the_readme_list():
    api = readme_api()
    assert list(api) == ["poly", "supnorm", "family", "search"]
    names = sorted(name for layer in api.values() for name in layer)
    assert len(names) == 35
    assert sorted(bhbounds.__all__) == names


def test_public_names_resolve_on_the_package_and_their_module():
    for layer, names in readme_api().items():
        module = importlib.import_module(f"bhbounds.{layer}")
        for name in names:
            assert getattr(bhbounds, name) is getattr(module, name), name


def test_internal_names_stay_on_their_modules():
    for layer, names in INTERNAL.items():
        module = importlib.import_module(f"bhbounds.{layer}")
        for name in names:
            assert hasattr(module, name), name
            assert not hasattr(bhbounds, name), name
    assert not hasattr(importlib.import_module("bhbounds.family"), "build_quadratic")
