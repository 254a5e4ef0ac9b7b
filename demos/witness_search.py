"""
Searching coefficient space for better witnesses
================================================

Is the quadratic family the best one can do with small polynomials?  The
pattern search probes the full space of real coefficient vectors over all
degree-m multi-indices.  Restart 0 starts from the known family (so the
search can never fall below it); the rest start from random coefficients
in [-2, 2].  The result is packaged as a reproducible JSON certificate.
"""

from bhbounds import (
    SearchConfig,
    certificate_json,
    family_ratio,
    load_certificate,
    optimal_x,
    save_certificate,
    search,
)

cfg = SearchConfig(
    m=2,
    num_vars=2,
    restarts=8,
    rng_seed=2024,
    eval_budget=150,
    grid=64,  # sup-norm grid points per free axis
)
cert = search(cfg)

floor = family_ratio(cfg.m, optimal_x(cfg.m))
print(f"family floor       : {floor:.12f}")
print(f"search estimate    : {cert.estimate:.12f}  (restart {cert.restart_index})")
print(f"certified lower    : {cert.certified_lower:.12f}")
print(f"winning polynomial : {dict(cert.polynomial.terms)}")

# No improvement over the family has ever shown up in this tiny space;
# the search exists to probe exactly that question on bigger ones.
gain = cert.estimate - floor
print(f"gain over family   : {gain:+.2e}")

# The certificate file reproduces the certified bound bit-exactly.
save_certificate(cert, "witness_cert_m2.json")
reloaded = load_certificate("witness_cert_m2.json")
assert reloaded.certified_lower == cert.certified_lower
assert certificate_json(reloaded) == certificate_json(cert)
print("wrote witness_cert_m2.json (round-trips bit-exactly)")
