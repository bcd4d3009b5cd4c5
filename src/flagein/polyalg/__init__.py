"""Exact polynomial algebra: sparse multivariate arithmetic over rationals,
Buchberger Groebner bases with elimination and saturation, and certified
real-root isolation by Descartes' rule of signs."""
