// The benchmark is a module of its own so that `go build ./...` in the
// repository root never compiles it and no change to the serving code
// has to touch it; the replace directive lets it import the parent
// module's internal packages (the import path dissenter/bench is inside
// dissenter/, which is what Go's internal rule checks).
module dissenter/bench

go 1.24

require dissenter v0.0.0

replace dissenter => ../
