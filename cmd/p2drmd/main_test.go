package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("p2drmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestFlagSurface pins the daemon's flags: the twelve names and their
// defaults, that a retired tuning flag is refused rather than ignored,
// and that -lab cannot silently discard an explicit -rsa-bits.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"addr": ":8474", "admin-socket": "", "state": "", "rsa-bits": "2048",
		"lab": "false", "seed-demo": "true", "user-token": "", "admin-token": "",
		"replica-of": "", "primary-token": "", "log-level": "info", "slo-latency": "250ms",
	}
	fs := newFlagSet()
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	got := 0
	fs.VisitAll(func(f *flag.Flag) {
		got++
		if def, ok := want[f.Name]; !ok {
			t.Errorf("flag -%s is not part of the pinned surface", f.Name)
		} else if f.DefValue != def {
			t.Errorf("-%s defaults to %q, want %q", f.Name, f.DefValue, def)
		}
	})
	if got != len(want) {
		t.Errorf("%d flags defined, want %d", got, len(want))
	}

	for _, arg := range []string{
		"-bank-shards=16", "-wal-group-commit", "-kv-index-shards=16", "-kv-segment-bytes=67108864",
		"-replica-poll=500ms", "-crypto-precompute", "-crypto-nonce-pool=256", "-crypto-pool-fillers=1",
	} {
		_, err := parseFlags(newFlagSet(), []string{arg})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want flag provided but not defined", arg, err)
		}
	}

	for _, tc := range []struct {
		args    []string
		refused bool
	}{
		{[]string{"-lab"}, false},
		{[]string{"-rsa-bits", "3072"}, false},
		{[]string{"-lab", "-rsa-bits", "2048"}, true},
		{[]string{"-rsa-bits=1024", "-lab"}, true},
	} {
		if _, err := parseFlags(newFlagSet(), tc.args); (err != nil) != tc.refused {
			t.Errorf("%v: err = %v, want refused = %v", tc.args, err, tc.refused)
		}
	}
	if fl, err := parseFlags(newFlagSet(), []string{"-lab"}); err != nil || fl.rsaBits != labRSABits {
		t.Errorf("-lab: rsaBits = %+v, %v; want %d", fl, err, labRSABits)
	}
}
