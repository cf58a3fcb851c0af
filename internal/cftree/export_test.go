package cftree

// RefineReference exposes refineReference to the external differential
// test over real summaries (it needs internal/core, which imports this
// package).
var RefineReference = refineReference

// SameACFs exposes sameACFs to the same test.
var SameACFs = sameACFs
