"""Transport-purity layering analysis (the L-rules).

The layering layer proves the guard's decision logic is a separable
module, the way the paper deploys it (§III: a bump-in-the-wire box in
front of the ANS).  Each package self-describes with a module-level
``__layer__`` literal (pure-core / adapter / platform) matched against
the import-layering manifest; a static pass keeps platform imports
(L001), transport reach (L002) and purity escapes (L003) out of the
core, keeps decision logic from drifting back into the adapters (L004)
and keeps the manifest honest (L005); and a runtime witness (L006)
re-imports the declared pure core in a subprocess with the platform
layers blocked by a meta-path finder, proving there is no transitive
dependency either.

See DESIGN.md ("Layering model") for the mapping to the paper's
firewall-module architecture.
"""

from .engine import LAYER_RULES, check_layers
from .manifest import (
    DECL_NAME,
    DEFAULT_MANIFEST,
    FORBIDDEN_STDLIB,
    LAYERS,
    declared_layer,
    layer_of,
    pure_prefixes,
)
from .runtime import BLOCKED_PREFIXES, LayerReport, verify_import_isolation

__all__ = [
    "BLOCKED_PREFIXES",
    "DECL_NAME",
    "DEFAULT_MANIFEST",
    "FORBIDDEN_STDLIB",
    "LAYERS",
    "LAYER_RULES",
    "LayerReport",
    "check_layers",
    "declared_layer",
    "layer_of",
    "pure_prefixes",
    "verify_import_isolation",
]
