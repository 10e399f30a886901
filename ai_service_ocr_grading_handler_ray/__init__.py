"""Ray-Data-native main-content extraction engine.

A from-scratch reimplementation of the query / data-processing
capabilities of the reference OCR-grading dataflow
(LearnSenseLabs/ai-service-ocr-grading-handler, studied read-only) as
idiomatic ``ray.data.Dataset`` pipelines:

- stateless ``map_batches`` over zero-copy Arrow batches for payload-kind
  routing, HTML boilerplate stripping, regex field extraction, rubric
  scoring and flag derivation;
- one Stage-A extraction pass (HTML, XY-cut PDF layout, OCR of
  image-only pages) as stateless tasks with a per-worker cached engine;
- explicit shuffles for the wide steps (url-hash repartitioning, exact
  dedup by url, salted per-host groupbys);
- per-partition checkpoint manifests enabling exact resume.

No module in this package calls ``ray.init()`` / ``ray.shutdown()`` —
sessions are owned by the driver, ``bench.py`` and the test fixture.
"""

__version__ = "0.1.0"
