"""Analysis layer: paper metrics, consistency audits, stats, tables."""
