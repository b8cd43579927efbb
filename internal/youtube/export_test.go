package youtube

// PathKey lets the external tests (which import synth, and synth
// imports this package) see the keys the site and crawler use.
var PathKey = pathKey
