// Command datagen emits benchmark datasets in the whitespace-separated
// text format the skycubed tool and the library read: one point per line,
// smaller values better.
//
// Usage:
//
//	datagen -dist I -n 100000 -d 8 -seed 42 > data.txt
//	datagen -real WE -scale 0.1 > weather.txt
//	datagen -dist A -n 1000000 -d 6 -shards 4 -out cluster/part
//
// With -shards K the dataset is split into K disjoint partition files named
// <out>-<s>-of-<K>.txt, ready to serve with skycubed -shard. -shard-mode
// picks the split: round-robin (row r goes to shard r mod K, global id
// arithmetic base s / stride K), range (contiguous blocks, base offset /
// stride 1), or angular (equal-count slices by angle around the min corner,
// which mostly ship fewer candidates per query than round-robin; positional
// ids — base = total size of earlier shards, stride 1 — so read-only clusters
// like range);
// each file carries its skycubed -shard flags in a comment header.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"skycube"
)

func main() {
	dist := flag.String("dist", "I", "synthetic distribution: I (independent), C (correlated), A (anticorrelated)")
	n := flag.Int("n", 100000, "number of points (synthetic)")
	d := flag.Int("d", 8, "dimensionality (synthetic)")
	seed := flag.Int64("seed", 42, "generator seed")
	real := flag.String("real", "", "real-data stand-in instead: NBA, HH, CT, or WE")
	scale := flag.Float64("scale", 1, "row-count scale for -real, in (0,1]")
	shards := flag.Int("shards", 0, "split into this many disjoint partition files instead of writing stdout")
	shardMode := flag.String("shard-mode", "round-robin", "partition mode with -shards: round-robin, range, or angular")
	out := flag.String("out", "part", "output file prefix with -shards (files named <out>-<s>-of-<K>.txt)")
	joinStub := flag.Bool("join-stub", false, "with -shards: additionally write an empty joinable shard stub <out>-join-of-<K>.txt whose header shows the -join-from bootstrap and split commands")
	flag.Parse()

	var ds *skycube.Dataset
	if *real != "" {
		w, ok := map[string]skycube.RealWorkload{
			"NBA": skycube.NBA, "HH": skycube.Household,
			"CT": skycube.Covertype, "WE": skycube.Weather,
		}[*real]
		if !ok {
			fmt.Fprintf(os.Stderr, "datagen: unknown real dataset %q (NBA, HH, CT, WE)\n", *real)
			os.Exit(2)
		}
		ds = skycube.GenerateReal(w, *scale, *seed)
	} else {
		dd, ok := map[string]skycube.Distribution{
			"I": skycube.Independent, "C": skycube.Correlated, "A": skycube.Anticorrelated,
		}[*dist]
		if !ok {
			fmt.Fprintf(os.Stderr, "datagen: unknown distribution %q (I, C, A)\n", *dist)
			os.Exit(2)
		}
		if *n <= 0 || *d <= 0 || *d > skycube.MaxDims {
			fmt.Fprintf(os.Stderr, "datagen: invalid size %d×%d\n", *n, *d)
			os.Exit(2)
		}
		ds = skycube.GenerateSynthetic(dd, *n, *d, *seed)
	}
	if *shards > 0 {
		if err := writeShards(ds, *shards, *shardMode, *out, *joinStub); err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		return
	}
	if *joinStub {
		fmt.Fprintln(os.Stderr, "datagen: -join-stub requires -shards")
		os.Exit(2)
	}
	if err := ds.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

// writeShards splits ds into k disjoint partition files, each headed by a
// comment naming the skycubed -shard flags that serve it. With joinStub it
// additionally writes an empty shard k+1 stub whose header shows the
// -join-from bootstrap and split commands for a live join.
func writeShards(ds *skycube.Dataset, k int, modeName, prefix string, joinStub bool) error {
	var mode skycube.PartitionMode
	switch modeName {
	case "round-robin":
		mode = skycube.RoundRobinPartition
	case "range":
		mode = skycube.RangePartition
	case "angular":
		mode = skycube.AngularPartition
	default:
		return fmt.Errorf("unknown -shard-mode %q (round-robin, range, or angular)", modeName)
	}
	parts, err := ds.Partition(k, mode)
	if err != nil {
		return err
	}
	// Positional modes number global ids by concatenation order, so a
	// shard's id base is the total size of the shards before it (for equal
	// range blocks this reproduces data.RangeOffsets).
	posBase := 0
	for s, part := range parts {
		base, stride := s, k
		if mode.Positional() {
			base, stride = posBase, 1
		}
		posBase += part.Len()
		name := fmt.Sprintf("%s-%d-of-%d.txt", prefix, s, k)
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		fmt.Fprintf(w, "# shard %d of %d (%s partition of %d×%d): serve with\n",
			s, k, mode, ds.Len(), ds.Dims())
		fmt.Fprintf(w, "#   skycubed -serve :%d -shard -id-base %d -id-stride %d %s\n",
			9001+s, base, stride, name)
		if err := part.Write(w); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "datagen: wrote %s (%d points, id base %d stride %d)\n",
			name, part.Len(), base, stride)
	}
	if joinStub {
		return writeJoinStub(ds, k, prefix, posBase)
	}
	return nil
}

// writeJoinStub emits an empty shard k+1 partition file whose header is a
// ready-to-run recipe for a live join: the new node carries no data file —
// it bootstraps over HTTP from a peer's snapshot stream — and its insert id
// base (the total size of the k real shards, stride 1) stays compatible
// with the positional id arithmetic the other headers use, so no partition
// file needs hand-editing to demonstrate the join.
func writeJoinStub(ds *skycube.Dataset, k int, prefix string, posBase int) error {
	name := fmt.Sprintf("%s-%d-of-%d.txt", prefix, k, k+1)
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# shard %d of %d: joinable empty stub (positional id base %d, stride 1) of %d×%d\n",
		k, k+1, posBase, ds.Len(), ds.Dims())
	fmt.Fprintf(w, "# no data rows on purpose — bootstrap the node from a live peer's snapshot stream:\n")
	fmt.Fprintf(w, "#   skycubed -serve :%d -shard -data-dir ./shard-%d -join-from http://localhost:%d\n",
		9001+k, k, 9001)
	fmt.Fprintf(w, "# then cut it into the ring while the cluster keeps serving:\n")
	fmt.Fprintf(w, "#   skycubectl -coordinator http://localhost:8080 split -shard 0 -child s%d -replicas http://localhost:%d\n",
		k, 9001+k)
	fmt.Fprintf(w, "# (the split seals the child's own insert id block; its checkpoints keep it across restarts)\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "datagen: wrote %s (joinable empty stub, id base %d stride 1)\n", name, posBase)
	return nil
}
