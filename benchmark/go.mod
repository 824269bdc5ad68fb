// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the repository's `go build ./... && go test ./...`.
// Its import path is below skycube/, which is what lets it import
// skycube/internal/... packages.
module skycube/benchmark

go 1.22

require skycube v0.0.0

replace skycube => ../
