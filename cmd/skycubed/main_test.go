package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

func TestParseSubspace(t *testing.T) {
	cases := []struct {
		spec string
		d    int
		want uint32
		ok   bool
	}{
		{"0", 3, 0b001, true},
		{"0,2", 3, 0b101, true},
		{" 1 , 2 ", 3, 0b110, true},
		{"2,2", 3, 0b100, true}, // duplicates collapse
		{"3", 3, 0, false},      // out of range
		{"-1", 3, 0, false},
		{"a", 3, 0, false},
		{"", 3, 0, false},
		{"0,,1", 3, 0, false},
	}
	for _, c := range cases {
		got, err := parseSubspace(c.spec, c.d)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseSubspace(%q, %d) = %b, %v; want %b", c.spec, c.d, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("parseSubspace(%q, %d) should fail", c.spec, c.d)
		}
	}
}

// TestIgnoredFlagRefused parses argument lists the way main does and checks
// that a flag the invocation's mode does not read is refused, naming the
// flag and the mode it needs, while every flag its mode reads passes.
func TestIgnoredFlagRefused(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the refusal; "" means accepted
	}{
		{[]string{"-algo", "STSC", "-threads", "2", "-max-level", "2", "-query", "0,1", "-trace", "t.json", "-progress"}, ""},
		{[]string{"-serve", ":0", "-pprof", "-trace", "t.json", "-no-cache", "-trace-sample", "4"}, ""},
		{[]string{"-serve", ":0", "-shard", "-data-dir", "d", "-fsync", "never", "-id-base", "1", "-id-stride", "2"}, ""},
		{[]string{"-serve", ":0", "-coordinator", "-shards", "a,b", "-replicas", "2", "-cluster-timeout", "1s", "-no-cache", "-slow-query", "1s"}, ""},
		{[]string{"-serve", ":0", "-data-dir", "d"}, "-data-dir is ignored by a static -serve node; it needs -shard"},
		{[]string{"-serve", ":0", "-query", "0,1"}, "-query is ignored by a static -serve node; it needs a build (no -serve)"},
		{[]string{"-serve", ":0", "-shard", "-trace", "t.json"}, "-trace is ignored by -shard; it needs a build (no -serve) or a static -serve node"},
		{[]string{"-serve", ":0", "-shard", "-progress"}, "-progress is ignored by -shard"},
		{[]string{"-serve", ":0", "-coordinator", "-threads", "4"}, "-threads is ignored by -coordinator"},
		{[]string{"-serve", ":0", "-coordinator", "-shard"}, "-shard is ignored by -coordinator; it needs -shard"},
		{[]string{"-pprof"}, "-pprof is ignored by a build (no -serve); it needs a static -serve node or -shard or -coordinator"},
		{[]string{"-replicas", "2"}, "-replicas is ignored by a build (no -serve); it needs -coordinator"},
		{[]string{"-serve", ":0", "-shard", "-shards", "a"}, "-shards is ignored by -shard; it needs -coordinator"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("skycubed", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := defineFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		got := ignoredFlag(fs, modeOf(f))
		if c.want == "" && got != "" || c.want != "" && !strings.Contains(got, c.want) {
			t.Errorf("%v: refusal %q, want %q", c.args, got, c.want)
		}
	}
}

// TestEveryFlagHasModes: a flag missing from flagModes would be refused in
// every mode, so each declared flag must name at least one.
func TestEveryFlagHasModes(t *testing.T) {
	fs := flag.NewFlagSet("skycubed", flag.ContinueOnError)
	defineFlags(fs)
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		if flagModes[fl.Name] == 0 {
			t.Errorf("-%s is read by no mode", fl.Name)
		}
	})
	if n != len(flagModes) {
		t.Errorf("%d flags declared, %d in flagModes", n, len(flagModes))
	}
}

// TestShardUsage: the flags only a data directory reads are refused by a
// -shard node without one (an in-memory node would ignore them), and
// accepted with one.
func TestShardUsage(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the refusal; "" means accepted
	}{
		{[]string{"-serve", ":0", "-shard", "part.txt"}, ""},
		{[]string{"-serve", ":0", "-shard", "-data-dir", "d", "-peers", "http://a", "-fsync", "never", "-checkpoint-every", "8"}, ""},
		{[]string{"-serve", ":0", "-shard", "-data-dir", "d", "-join-from", "http://a"}, ""},
		{[]string{"-shard", "part.txt"}, "-shard requires -serve"},
		{[]string{"-serve", ":0", "-shard", "-join-from", "http://a"}, "-join-from requires -data-dir"},
		{[]string{"-serve", ":0", "-shard", "-peers", "http://a", "part.txt"}, "-peers requires -data-dir"},
		{[]string{"-serve", ":0", "-shard", "-fsync", "always", "part.txt"}, "-fsync requires -data-dir"},
		{[]string{"-serve", ":0", "-shard", "-checkpoint-every", "8", "part.txt"}, "-checkpoint-every requires -data-dir"},
		{[]string{"-serve", ":0", "-shard", "-data-dir", "d", "-join-from", "http://a", "part.txt"}, "-join-from takes no data file"},
		{[]string{"-serve", ":0", "-shard", "-id-base", "-1", "part.txt"}, "must not be negative"},
		{[]string{"-serve", ":0", "-shard"}, "usage: skycubed -shard"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("skycubed", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := defineFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		got := shardUsage(fs, f)
		if c.want == "" && got != "" || c.want != "" && !strings.Contains(got, c.want) {
			t.Errorf("%v: refusal %q, want %q", c.args, got, c.want)
		}
	}
}

// TestDocumentedFlagsExist: every -flag on a skycubed command line in the
// README or the verify recipe is one defineFlags declares, so a flag that
// goes cannot linger in a documented command. Backslash-continued lines are
// joined first; a command ends at a backtick, a shell separator or a
// comment.
func TestDocumentedFlagsExist(t *testing.T) {
	fs := flag.NewFlagSet("skycubed", flag.ContinueOnError)
	defineFlags(fs)
	for _, path := range []string{"../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		commands := 0
		for n := 0; n < len(lines); n++ {
			start, line := n+1, lines[n]
			for strings.HasSuffix(line, "\\") && n+1 < len(lines) {
				n++
				line = strings.TrimSuffix(line, "\\") + " " + lines[n]
			}
			for rest := line; ; {
				i := strings.Index(rest, "skycubed ")
				if i < 0 {
					break
				}
				cmd := rest[i+len("skycubed "):]
				if i > 0 && !strings.ContainsRune(" \t(/`", rune(rest[i-1])) {
					rest = cmd
					continue
				}
				if end := strings.IndexAny(cmd, "`|&;#)"); end >= 0 {
					cmd = cmd[:end]
				}
				rest = rest[i+len("skycubed "):]
				commands++
				for _, tok := range strings.Fields(cmd) {
					name := strings.TrimLeft(tok, "-")
					if !strings.HasPrefix(tok, "-") || name == "" || name[0] < 'a' || name[0] > 'z' {
						continue
					}
					name, _, _ = strings.Cut(name, "=")
					if fs.Lookup(name) == nil {
						t.Errorf("%s: command line %d passes -%s, which skycubed does not declare: %s",
							path, start, name, strings.TrimSpace(line))
					}
				}
			}
		}
		if commands == 0 {
			t.Errorf("%s: no skycubed command line found", path)
		}
	}
}
