"""Clean-lint sweeps: every module we ship or generate lints clean.

These are the analyzer's end-to-end regression net — a new pass that
starts flagging curated benchmarks (or fuzz-generated modules from any
scenario family) fails here first.  The shipped modules' content hashes
are pinned too, so the canonicalizer cannot drift unnoticed.
"""

import pathlib

import pytest

from repro.analysis.lint import analyze_definition, analyze_file
from repro.gen.modgen import FAMILIES, generate_corpus, generate_module
from repro.suite.registry import all_benchmark_names, get_benchmark

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples" / "modules")
    .glob("*.hanoi"))


#: Each shipped module's canonical content hash.  The hash keys the
#: persistent disk cache and is printed by ``repro lint --hash``, so a change
#: to the canonicalizer that moves any of these invalidates every stored
#: cache entry; update the table only for such a deliberate change.
CONTENT_HASHES = {
    "/coq/bst-::-set*":
        "42778a47b88bac253a91d63265c53469f94a89e1066c25a218bed1f5b0fb7f95",
    "/coq/bst-::-set+binfuncs":
        "c2e0b01aee073b5bff87a2a2e2d4d2eb33cf21cd8c3977b136877f75b56473ff",
    "/coq/bst-::-set+hofs*":
        "466e2edee9d02813228338430fc79153c0a90d502620b56917fab392df664069",
    "/coq/rbtree-::-set*":
        "6c0a70eda0db1c02d1bde920254c40c5b948f1b936a95562f07cd804062dbdd9",
    "/coq/rbtree-::-set+binfuncs":
        "f0c0f2a95ab8d282ba0bc5850343bb996ff594a32cfc923cfd3324db3f4141e5",
    "/coq/rbtree-::-set+hofs*":
        "eb5b84b55ee48f5ddaa96c3c95a279c689725c80dbe8942bf16360c36e0dc935",
    "/coq/maxfirst-list-::-heap":
        "9aeab2b105e7a97006cc3ddb8094843e4d9071efd2a13825cbe5c321b62dafbc",
    "/coq/maxfirst-list-::-heap+binfuncs":
        "cae3f2767747967b304b13de2e6bab8eaa31fdcc2489cd0607f07284189c7577",
    "/coq/sorted-list-::-set":
        "68cb8deb840f304a741a7aec9be0d808b9a6dbf0117cdbbd971a0037c588b34b",
    "/coq/sorted-list-::-set+binfuncs":
        "6c9a9d8ac713fa213b94ffe3b7a025b7e7d3a2e0a1c32e407d6ae2bfb071464c",
    "/coq/sorted-list-::-set+hofs":
        "9ceb5b87492a54dd641b0787dd8882e421bc74530c89d48d6ba5f416db0c42fd",
    "/coq/unique-list-::-set":
        "0dbdf3bef37348a80be59533033b1e153be7944112a4084e980d4e2d08e555fe",
    "/coq/unique-list-::-set+binfuncs":
        "f05fdecbfec63d5311005ec92da71ad4d96a21cc0357b58347f33d759f0f6346",
    "/coq/unique-list-::-set+hofs":
        "cdea39de566c3aa67ae675f7ee4f274a8ff74f47f684ca697b7ae80130c66d73",
    "/other/cache":
        "4fe5497386f6512e36307211e24a21e85c45e26b5516a11047443014ac474938",
    "/other/listlike-tree":
        "c5db10410b62e3b562f92ab22237a72b77947f7cf243571a1af5cfbeab5afe48",
    "/other/nat-nat-option-::-range":
        "a5b9112e13a5dbb6c1a2fe1732cc6dc7f0355095d834b841a66c1fc4d99961bb",
    "/other/rational":
        "52f902455158f8b32c70e4b8150890882271ddc033eb6e2d7be4b1170ae27068",
    "/other/sized-list":
        "7d57aa4ebd9480a63f5348eeafe3983816f6eaf3830ec8c95afb6c71e6182f3d",
    "/other/stutter-list":
        "233b471da419b72d50ee77a2cae1187a9568e29f1a666e0fe367e24b10a9c461",
    "/vfa-extended/assoc-list-::-table":
        "e864bed3ca8b13d1b0e4fdbbc74c78b8d40ccba1d12e550069a8145fe812be58",
    "/vfa-extended/bst-::-table":
        "6c033fee392f512e68ce25ede24ef63e6057049e1fa86d460ca6fa45c5609b85",
    "/vfa-extended/trie-::-table":
        "344073f9e79771b85d5231159b4793eb32dee14aa680623691965dca4263c405",
    "/vfa/assoc-list-::-table":
        "fef7cb17c4524f932c649b01b2fec50ca423f0801ece83a09240c3a022994f8e",
    "/vfa/bst-::-table":
        "2644423a1e8ceca5c595a2f75026989a1337da0c771d38eaa150724ecd402b84",
    "/vfa/tree-::-priqueue*":
        "cbe2513dbf9a3aada4c056f817c12b508156ad32b3e806b4ba40c5cef2e3ed23",
    "/vfa/tree-::-priqueue+binfuncs*":
        "b7aaade9d259c34a47a4fb686ed8573c64cc6e26afe9a09f9cec025b5684c42b",
    "/vfa/trie-::-table":
        "bf7d1ae49c3fb613ef324083d0fe129d9a752ae66dfb1a198871e04070e370bf",
    "bounded-stack.hanoi":
        "54dfcbbddca7b0285b743e2a84a743fbb956c9c9e3626d5ab68f6b5ccc2e98f4",
    "lru-cache.hanoi":
        "9a3a66f1a0096f3344f4ea85219e6e5d1bb9ccf4fe2387c2f7e899de8a8f0a63",
    "parity-counter.hanoi":
        "d8cde49d736acc079f83c6a6ed0217d7780ada31044cc1d9092beca91bc07a67",
    "ring-buffer.hanoi":
        "fdf456135cf178c8f6d57120d64adec9eaaec3aa14aa5e0d6cbda81d7fd85fd4",
    "two-list-queue.hanoi":
        "1217c7c4ec91a4add46ecfc0b170f6a40a47388ce297464bb49f236f6249ed9c",
    "union-find.hanoi":
        "d959e4c702d4ba9c423ddf6980082cce3ea4ca8ad56e248e0ec68b77c1533dc6",
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
