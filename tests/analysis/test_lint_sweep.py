"""Clean-lint sweeps: every module we ship or generate lints clean.

These are the analyzer's end-to-end regression net — a new pass that
starts flagging curated benchmarks (or fuzz-generated modules from any
scenario family) fails here first.  The shipped modules' content hashes
are pinned too, so the content key cannot drift unnoticed.
"""

import pathlib

import pytest

from repro.analysis.lint import analyze_definition, analyze_file
from repro.gen.modgen import FAMILIES, generate_corpus, generate_module
from repro.suite.registry import all_benchmark_names, get_benchmark

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples" / "modules")
    .glob("*.hanoi"))


#: Each shipped module's content key.  The key backstops the persistent
#: disk cache's section keys and is printed by ``repro lint --hash``, so a
#: change to the key that moves any of these invalidates stored cache
#: entries; update the table only for such a deliberate change.
CONTENT_HASHES = {
    "/coq/bst-::-set*":
        "a5177e81c6fa34354a3a5cf73b0cebd95bcf469d5611f3a628cbe2821ba7bcb3",
    "/coq/bst-::-set+binfuncs":
        "c33e01d5a70bcc9a18364d43da723d2261a5746cd7efdfc3b98c8f00356e117e",
    "/coq/bst-::-set+hofs*":
        "5a948517bbf92e546203e48ee6487fbdbc6a8420569557180670aa8743eeae5a",
    "/coq/rbtree-::-set*":
        "e4e004424485ad2a5ea829e98dff5b5c6a5904d5094078a57db7cced16d62712",
    "/coq/rbtree-::-set+binfuncs":
        "dc502fc9463865b773ce9f941cf675ef064b6d3a31e9dab705e3d839179c0690",
    "/coq/rbtree-::-set+hofs*":
        "a7991dc3a43237536009daf698cc37241b93458989bf6687fe579be170eee231",
    "/coq/maxfirst-list-::-heap":
        "122aa5b96f7297b1413dbcbf379a211f0fc72611ba4148486b87b69f08af05af",
    "/coq/maxfirst-list-::-heap+binfuncs":
        "8e1fc248e1e1793b61fd924093346484a445d7d68d0fa63d8d82e53aefcef776",
    "/coq/sorted-list-::-set":
        "a108f98e4a6b45926e308e0241bc34db4e2a537b27cedff2b0f457c9b88cf8bb",
    "/coq/sorted-list-::-set+binfuncs":
        "9e39280fed08a13f6876f1d3f5b793c38aeb4bd0488a1890fd8f45963c58dd64",
    "/coq/sorted-list-::-set+hofs":
        "86fc2179d86ae1a8fd761ec6bf3c32869d43d7bec7c9be3450110a122f6a15df",
    "/coq/unique-list-::-set":
        "e0bc6c22109dfa64a5715c058fe21e76690710be49de87b9a181ea1dc628a3ec",
    "/coq/unique-list-::-set+binfuncs":
        "8c7e1c38ab1209e491ad05163f19093dec0841227c88c5d57153a94b3ffb9f27",
    "/coq/unique-list-::-set+hofs":
        "890345c08a8a3fad80b26f23c02edc5173f5be1b9ddb65b4a9f4b98ba6ccc7c6",
    "/other/cache":
        "936968dd5a196b32cce5ab8bf1fcf93c2f7315819deb62eb6936d8de46e9dccf",
    "/other/listlike-tree":
        "89e15542cbaba231a9530489b32a66947ea822d85cc6a8af3a9af8d32e0b6bfa",
    "/other/nat-nat-option-::-range":
        "e5e1cef9ae075a838e3120c365052aa504b6e38cc5a6893a55935b0bbf87fa68",
    "/other/rational":
        "e18d9429289d8c1096c32dcf793905a75ee2ea413f3c03aa6ad3681c3823ccc2",
    "/other/sized-list":
        "7789d4d00476962374eefaa5f720c0fe078f966869af108008316c1bb5283358",
    "/other/stutter-list":
        "80d6693c3edfb0c628ae4b210851034a88c34aed582e9970cdb67ac9c1481f31",
    "/vfa-extended/assoc-list-::-table":
        "3bec744c5509daf4bc70e7a80a7609aefa9da7252e0bb2a49806c76c7c4a0f70",
    "/vfa-extended/bst-::-table":
        "c7ed677717441f0a24b9f2930b2a5f901b1cb98389e16ff2f1ae2909a9ff4109",
    "/vfa-extended/trie-::-table":
        "fa70b63ad76da67dcdb3713ce0599adf0693039525c67a994683ab8099b72363",
    "/vfa/assoc-list-::-table":
        "c5ba7305ccd7e4b9c88eb4483ff4461aab19ec7581fc6a9cbebed9a8134f0a02",
    "/vfa/bst-::-table":
        "e62734dc78e632ee6ee9036e3dedea16d537adba5681326113c69d7282d6a0aa",
    "/vfa/tree-::-priqueue*":
        "c3cc6a3bf8bf9e981cba71743775ea69d0c4542687b78f3963defdcf85b48f52",
    "/vfa/tree-::-priqueue+binfuncs*":
        "b5c4bc01920eec47ee1808f0b572bc0da5d423739e1196438b9a9e6f106ea4b6",
    "/vfa/trie-::-table":
        "dc5a44f7a555ae8725d351e60b9708dcaf4a28585f1ccbf49d22f24eede9ea94",
    "bounded-stack.hanoi":
        "8d5867ebe0a8a51d7a1a0ec0fdb1127427dcedcee4607f6f2ab7c5ee5cdf5d92",
    "lru-cache.hanoi":
        "e6bf66363959cd77e291081e8b8d4fcfaee94d9a6222e57cc35934224ec69e30",
    "parity-counter.hanoi":
        "1bbde1fa87567864887f5e7ed5c3f00d5f08c40c75bc8599f3e16d8b6005a3ab",
    "ring-buffer.hanoi":
        "109b39c65b0b35d5d40d61be97c1a74e33e22a29a2fce23aba6d0d098ad08c5e",
    "two-list-queue.hanoi":
        "fce48ec13b82962db1f166dbc595a7ef1450109df4459692b067b9030512f8d0",
    "union-find.hanoi":
        "b4de9c93390d9d0f02d3a178008ca15a18170897f52d880fe9d4412125c22ac8",
}


@pytest.mark.parametrize("name", all_benchmark_names())
def test_builtin_content_hash_is_pinned(name):
    report = analyze_definition(get_benchmark(name), path=name)
    assert report.content_hash == CONTENT_HASHES[name]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_content_hash_is_pinned(path):
    assert analyze_file(str(path)).content_hash == CONTENT_HASHES[path.name]


@pytest.mark.parametrize("name", all_benchmark_names())
def test_builtin_lints_clean(name):
    report = analyze_definition(get_benchmark(name), path=name)
    assert report.ok, report.render()
    assert report.content_hash


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_module_lints_clean(path):
    report = analyze_file(str(path))
    assert report.ok, report.render()


def test_all_families_produce_clean_modules():
    seen = set()
    seed = 0
    # Walk seeds until every scenario family has been linted at least once.
    while seen != set(FAMILIES) and seed < 500:
        module = generate_module(seed)
        report = analyze_definition(module.definition, path=module.name)
        assert report.ok, report.render()
        seen.add(module.family)
        seed += 1
    assert seen == set(FAMILIES)


@pytest.mark.fuzz
def test_generated_corpus_lints_clean():
    for module in generate_corpus(seed=11, count=40):
        report = analyze_definition(module.definition, path=module.name)
        assert report.ok, report.render()
