"""The pure guard core: decision state machines with no transport below.

The paper's guard is explicitly a separable bump-in-the-wire module
(§III) — its cookie/TCP/modified-DNS decision logic is independent of
the transport it fronts.  This package is that claim made structural:
everything here is a function of its arguments plus the injected
:mod:`~repro.guard.core.ports` seams (Clock/Rng/Emit), with **no**
imports of the simulator (``repro.netsim``), the observability layer
(``repro.obs``), asyncio or sockets.

The layering analysis (the L-rules of ``python -m repro.analysis``) enforces
this permanently: L001/L002/L003 keep platform dependencies and purity
escapes out statically, and L006 re-imports this package at analysis
time with the platform layers *blocked* to prove there is no transitive
dependency either.  That guarantee is what unblocks ROADMAP item 4 (a
dual-target dataplane: the same core behind real sockets).

Modules:

* :mod:`.ports` — the Clock/Rng/Emit injection protocols;
* :mod:`.cookie` — cookie generate/verify + key rotation (§III.E);
* :mod:`.dns_scheme` — the NS-label cookie codec (§III.B);
* :mod:`.edns_cookie` — the RFC 7873 codec and cookie computations;
* :mod:`.ratelimit` — RL1/RL2 per-source token buckets, rate estimation
  (Figure 4);
* :mod:`.admission` — admission shedding, policy escalation, reap
  deadlines (§III.C, §IV.C);
* :mod:`.local_policy` — the LRS-side hold/stamp/probe decisions
  (§III.D).

The simulator adapters (``repro.guard.pipeline`` and friends) import
down into this package; nothing here imports up.
"""

from __future__ import annotations

from .admission import (
    MIN_REAP_SECONDS,
    REAP_RTT_MULTIPLE,
    AdmissionControl,
    Policy,
    fallback_policy,
    reap_deadline,
    should_shed,
)
from .cookie import (
    KEY_LENGTH,
    LABEL_COOKIE_LENGTH,
    LABEL_HEX_DIGITS,
    LABEL_PREFIX,
    CookieFactory,
    random_key,
)
from .dns_scheme import (
    FABRICATED_NS_TTL,
    CookieName,
    cookie_name_answer,
    decode_cookie_name,
    delegation_owner,
    encode_cookie_name,
    fabricated_referral,
)
from .edns_cookie import (
    CLIENT_COOKIE_LENGTH,
    OPTION_COOKIE,
    SERVER_COOKIE_LENGTH,
    EdnsCookieServer,
    attach_edns_cookie,
    derive_client_cookie,
    extract_edns_cookie,
    strip_edns_cookie,
)
from .local_policy import (
    DEFAULT_COOKIE_TTL,
    PENDING_TIMEOUT,
    PROBE_RETRY_INTERVAL,
    UNCOOKIED_TTL,
    CachedCookie,
    cookie_usable,
    outbound_action,
    probe_due,
)
from .ports import NULL_EMIT, Clock, Emit, Rng
from .ratelimit import (
    RateEstimator,
    TokenBucket,
    UnverifiedResponseLimiter,
    VerifiedRequestLimiter,
)

__layer__ = "pure-core"

__all__ = [
    "AdmissionControl",
    "CachedCookie",
    "CLIENT_COOKIE_LENGTH",
    "Clock",
    "CookieFactory",
    "CookieName",
    "DEFAULT_COOKIE_TTL",
    "EdnsCookieServer",
    "Emit",
    "FABRICATED_NS_TTL",
    "KEY_LENGTH",
    "LABEL_COOKIE_LENGTH",
    "LABEL_HEX_DIGITS",
    "LABEL_PREFIX",
    "MIN_REAP_SECONDS",
    "NULL_EMIT",
    "OPTION_COOKIE",
    "PENDING_TIMEOUT",
    "PROBE_RETRY_INTERVAL",
    "Policy",
    "RateEstimator",
    "REAP_RTT_MULTIPLE",
    "Rng",
    "SERVER_COOKIE_LENGTH",
    "TokenBucket",
    "UNCOOKIED_TTL",
    "UnverifiedResponseLimiter",
    "VerifiedRequestLimiter",
    "attach_edns_cookie",
    "cookie_name_answer",
    "cookie_usable",
    "decode_cookie_name",
    "delegation_owner",
    "derive_client_cookie",
    "encode_cookie_name",
    "extract_edns_cookie",
    "fabricated_referral",
    "fallback_policy",
    "outbound_action",
    "probe_due",
    "random_key",
    "reap_deadline",
    "should_shed",
    "strip_edns_cookie",
]
