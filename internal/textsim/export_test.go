package textsim

// CheckRatcliff bridges checkRatcliff, and the dense-table reference
// behind it, to the external textsim_test package, which can import the
// dataset generator without an import cycle.
var CheckRatcliff = checkRatcliff
