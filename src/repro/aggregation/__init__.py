"""In-network aggregation (paper §IV-B, refs [30], [31]).

TinyDB-style acquisitional query processing: the root disseminates a
query; every node samples each epoch, folds its children's partial
state records into its own, and forwards a single record up the DODAG.
The funnel around the border router then carries O(1) records per node
per epoch instead of O(subtree) raw readings — the mechanism that
"alleviates the effects of the heavy load in the vicinity of border
routers".  :mod:`repro.aggregation.service` runs it, with the
partial-state operators of :mod:`repro.aggregation.operators` and the
query of :mod:`repro.aggregation.query`.

:mod:`repro.aggregation.pull` adds Koala-style on-demand retrieval:
nodes buffer locally and the network stays silent between rare pulls.
"""
