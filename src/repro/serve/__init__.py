"""Persistent caching across processes.

:mod:`repro.serve.diskcache` is a versioned, crash-tolerant,
content-addressed disk store that persists the evaluation and synthesis
caches across processes (``--cache-dir``; docs/service.md).  It is keyed by
per-declaration dependency hashes, so an edited module warm-starts from
everything the edit did not invalidate.

This package init stays import-light on purpose: the core loop imports
:mod:`repro.serve.diskcache` only when ``HanoiConfig.cache_dir`` is set.
"""
