"""The package's public names: each listed once, each resolvable, none unlisted."""
import types

import l1torus


def test_all_lists_every_public_name_once():
    listed = l1torus.__all__
    assert len(listed) == len(set(listed)), "duplicates in __all__"
    missing = [name for name in listed if not hasattr(l1torus, name)]
    assert missing == [], "listed but not bound"
    bound = {name for name, value in vars(l1torus).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(bound - set(listed)) == [], "bound but not listed"
