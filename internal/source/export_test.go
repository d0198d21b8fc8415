package source

// FuzzSeeds exposes FuzzParse's seed corpus to the external tests.
var FuzzSeeds = fuzzSeeds
