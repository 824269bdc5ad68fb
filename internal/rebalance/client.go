package rebalance

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"skycube"
	"skycube/internal/wal"
)

// Wire headers of the state-transfer protocol (shared with the shard's
// /shard/snapshot and /shard/tail handlers).
const (
	// TailSeqHeader names the WAL segment a snapshot pairs with, and on a
	// tail response the active segment the chain reached.
	TailSeqHeader = "X-Skycube-Tail-Seq"
	// TailTotalHeader is the chain's total record count after this response
	// — the caller's next skip cursor.
	TailTotalHeader = "X-Skycube-Tail-Total"
)

// maxTransferBytes caps one snapshot or tail response read.
const maxTransferBytes = 1 << 30

// transferTimeout bounds one state-transfer request. Snapshots of large
// shards take longer than a query round trip, so this is deliberately far
// above the coordinator's per-attempt timeout.
const transferTimeout = 60 * time.Second

// get issues one GET under transferTimeout and returns the body and
// response headers. Non-2xx statuses are errors carrying a body snippet;
// 410 Gone maps to wal.ErrTailTruncated.
func get(ctx context.Context, url string) ([]byte, http.Header, error) {
	ctx, cancel := context.WithTimeout(ctx, transferTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxTransferBytes))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode == http.StatusGone {
		return nil, nil, wal.ErrTailTruncated
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		snippet := string(body)
		if len(snippet) > 200 {
			snippet = snippet[:200]
		}
		return nil, nil, fmt.Errorf("rebalance: GET %s: status %d: %s", url, resp.StatusCode, snippet)
	}
	return body, resp.Header, nil
}

// Snapshot fetches the peer's snapshot stream: verbatim checkpoint bytes
// plus the WAL segment seq the tail chain starts at.
func Snapshot(ctx context.Context, peer string) ([]byte, uint64, error) {
	body, hdr, err := get(ctx, peer+"/shard/snapshot")
	if err != nil {
		return nil, 0, err
	}
	seq, err := strconv.ParseUint(hdr.Get(TailSeqHeader), 10, 64)
	if err != nil || seq == 0 {
		return nil, 0, fmt.Errorf("rebalance: %s/shard/snapshot: bad %s header %q",
			peer, TailSeqHeader, hdr.Get(TailSeqHeader))
	}
	// Verify before materializing anything: a corrupt stream must fail here,
	// not during local recovery.
	if _, err := wal.DecodeSnapshot(body); err != nil {
		return nil, 0, fmt.Errorf("rebalance: %s snapshot: %w", peer, err)
	}
	return body, seq, nil
}

// Tail fetches the peer's WAL tail from the (from, skip) cursor, returning
// the new records and the chain's total — the next skip. A 410 from the
// peer (the chain was truncated by a checkpoint) surfaces as
// wal.ErrTailTruncated; the caller must restart from a fresh snapshot.
func Tail(ctx context.Context, peer string, from uint64, skip int) ([]wal.Record, int, error) {
	url := fmt.Sprintf("%s/shard/tail?from=%d&skip=%d", peer, from, skip)
	body, hdr, err := get(ctx, url)
	if err != nil {
		return nil, 0, err
	}
	total, err := strconv.Atoi(hdr.Get(TailTotalHeader))
	if err != nil || total < skip {
		return nil, 0, fmt.Errorf("rebalance: %s: bad %s header %q", url, TailTotalHeader, hdr.Get(TailTotalHeader))
	}
	recs, err := wal.DecodeRecords(body)
	if err != nil {
		return nil, 0, err
	}
	if len(recs) != total-skip {
		return nil, 0, fmt.Errorf("rebalance: %s: %d records in body, header promises %d",
			url, len(recs), total-skip)
	}
	return recs, total, nil
}

// AntiEntropy compares a recovered updater's epoch against the epoch each
// peer reports on GET /shard/info and returns the decision as one line for
// the node's start-up banner. If any peer is ahead, this node missed writes
// while it was down: up is closed, opt.Durable.Dir wiped, and the state
// re-bootstrapped from the freshest peer — the returned node then replaces
// up. A nil node means up is current and stays. Unreachable peers are skipped (and logged to
// opt.Durable.Logger): with every peer down there is nothing to compare
// against, and serving the recovered state is strictly better than
// refusing to start.
func AntiEntropy(ctx context.Context, up *skycube.Updater, peers []string, opt skycube.Options) (*Node, string, error) {
	local := up.Current().Epoch()
	reachable := 0
	var freshest string
	var best uint64
	for _, p := range peers {
		p = strings.TrimRight(p, "/")
		// Epoch is the comparison key: write-all replicas apply identical
		// batches, so equal epochs mean identical state and a lower epoch
		// means missed writes.
		var info struct {
			Epoch uint64 `json:"epoch"`
		}
		body, _, err := get(ctx, p+"/shard/info")
		if err == nil {
			err = json.Unmarshal(body, &info)
		}
		if err != nil {
			if opt.Durable.Logger != nil {
				opt.Durable.Logger.Printf("anti-entropy: peer %s unreachable: %v", p, err)
			}
			continue
		}
		reachable++
		if info.Epoch > best {
			best, freshest = info.Epoch, p
		}
	}
	if best <= local {
		return nil, fmt.Sprintf("anti-entropy: local epoch %d is current across %d reachable peer(s)",
			local, reachable), nil
	}
	verdict := fmt.Sprintf("anti-entropy: local epoch %d is behind peer %s (epoch %d): re-bootstrapped",
		local, freshest, best)
	up.Close()
	if err := wal.WipeForRejoin(opt.Durable.Dir); err != nil {
		return nil, verdict, err
	}
	n, err := Bootstrap(ctx, freshest, opt)
	return n, verdict, err
}
