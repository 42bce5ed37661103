"""`repro.obs`: where the time went.

**scopes** (:mod:`repro.obs.scopes`) holds the per-scope accumulators
behind ``repro trace <artifact|all>``: a timer at every layer boundary
(the simulated CPU and kernel, the counter interfaces, the measurement
core, the executor and backend, the experiments, the analysis and the
rendering), each charging its self time to one scope, so the scopes
close to the traced wall time.  Only the ``trace`` command imports it;
an untraced run executes none of it.

Tracing is strictly an observer: artifact outputs are byte-identical
with and without it.
"""
