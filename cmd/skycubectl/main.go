// Command skycubectl drives a skycube cluster coordinator's admin surface:
// inspect the shard map and change membership while the cluster serves.
//
// Usage:
//
//	skycubectl -coordinator http://host:8080 map
//	skycubectl -coordinator http://host:8080 -shard 0 -replica http://host:9003 join
//	skycubectl -coordinator http://host:8080 -shard 0 -replica http://host:9003 drain
//	skycubectl -coordinator http://host:8080 -shard 0 -child 2 -replicas http://host:9005 split
//	skycubectl -coordinator http://host:8080 refresh
//	skycubectl -node http://host:9001 freshness
//
// join adds an already-bootstrapped replica (start it with `skycubed -shard
// -join-from <peer>`) to a shard group; drain removes one; split cuts a
// pre-bootstrapped child shard into the ring — the coordinator quiesces
// writes, converges the child against its source, seals the child's insert
// id block, swaps the map, and prunes both sides. freshness prints a shard
// node's /shard/info: its epoch — the one value anti-entropy compares — and
// its durable frontier (WAL seq, snapshot seq, replayed and journaled
// records).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL (e.g. http://host:8080)")
	shard := flag.String("shard", "", "shard name (join, drain, split)")
	replica := flag.String("replica", "", "replica URL (join, drain)")
	child := flag.String("child", "", "new shard name (split)")
	replicas := flag.String("replicas", "", "comma-separated child replica URLs (split)")
	node := flag.String("node", "", "shard node base URL (freshness)")
	timeout := flag.Duration("timeout", 5*time.Minute, "request timeout (a split streams and prunes, so allow minutes)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: skycubectl [flags] map|join|drain|split|refresh|freshness")
		flag.PrintDefaults()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if cmd == "freshness" {
		if *node == "" {
			fatal("freshness requires -node")
		}
		out, err := call(ctx, http.MethodGet, strings.TrimRight(*node, "/")+"/shard/info", nil)
		if err != nil {
			fatal(err)
		}
		printJSON(out)
		return
	}

	if *coordinator == "" {
		fatal(cmd + " requires -coordinator")
	}
	base := strings.TrimRight(*coordinator, "/")
	switch cmd {
	case "map":
		out, err := call(ctx, http.MethodGet, base+"/admin/map", nil)
		if err != nil {
			fatal(err)
		}
		printJSON(out)
	case "join", "drain":
		if *shard == "" || *replica == "" {
			fatal(cmd + " requires -shard and -replica")
		}
		body, _ := json.Marshal(map[string]string{"shard": *shard, "replica": *replica})
		out, err := call(ctx, http.MethodPost, base+"/admin/"+cmd, body)
		if err != nil {
			fatal(err)
		}
		printJSON(out)
	case "refresh":
		out, err := call(ctx, http.MethodPost, base+"/admin/refresh", nil)
		if err != nil {
			fatal(err)
		}
		printJSON(out)
	case "split":
		if *shard == "" || *child == "" || *replicas == "" {
			fatal("split requires -shard, -child and -replicas")
		}
		var urls []string
		for _, u := range strings.Split(*replicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		body, _ := json.Marshal(map[string]interface{}{
			"shard": *shard, "child": *child, "replicas": urls,
		})
		out, err := call(ctx, http.MethodPost, base+"/admin/split", body)
		if err != nil {
			fatal(err)
		}
		printJSON(out)
	default:
		fatal(fmt.Sprintf("unknown command %q (want map, join, drain, split, refresh or freshness)", cmd))
	}
}

// call issues one request and returns the body; non-2xx statuses are errors
// carrying the response text.
func call(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rdr)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// printJSON re-indents a JSON body for the terminal (raw on parse failure).
func printJSON(body []byte) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, bytes.TrimSpace(body), "", "  "); err != nil {
		os.Stdout.Write(body)
		return
	}
	buf.WriteByte('\n')
	os.Stdout.Write(buf.Bytes())
}

func fatal(v interface{}) {
	fmt.Fprintln(os.Stderr, "skycubectl:", v)
	os.Exit(2)
}
