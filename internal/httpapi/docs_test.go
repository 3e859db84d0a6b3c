package httpapi

// Drift test: docs/rest.md must document exactly the routes the
// routers register — every registered /v2 route has a `### METHOD
// /v2/path` heading, and every heading corresponds to a registered
// route. Add a route or a doc section without the other and this
// fails, naming the drift.

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var docHeading = regexp.MustCompile(`(?m)^### (GET|POST|PUT|DELETE) (/v2/\S+)`)

func restDocPath(t *testing.T) string {
	t.Helper()
	// Walk up from the package directory to the repo root (go.mod).
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "docs", "rest.md")
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above package directory")
		}
		dir = parent
	}
}

func TestDocsMatchRoutes(t *testing.T) {
	data, err := os.ReadFile(restDocPath(t))
	if err != nil {
		t.Fatalf("read docs/rest.md: %v", err)
	}
	documented := map[string]bool{}
	for _, m := range docHeading.FindAllStringSubmatch(string(data), -1) {
		key := m[1] + " " + m[2]
		if documented[key] {
			t.Errorf("docs/rest.md documents %q twice", key)
		}
		documented[key] = true
	}

	registered := map[string]bool{}
	for _, rt := range primaryRoutes() {
		registered[rt.Method+" "+rt.Path] = true
	}
	for _, rt := range replicaRoutes(t) {
		registered[rt.Method+" "+rt.Path] = true
	}

	for key := range registered {
		if !documented[key] {
			t.Errorf("route %q is registered but has no `### %s` section in docs/rest.md", key, key)
		}
	}
	for key := range documented {
		if !registered[key] {
			t.Errorf("docs/rest.md documents %q but no router registers it", key)
		}
	}
	if len(registered) == 0 {
		t.Fatal("no routes registered — Routes() is broken")
	}
	t.Logf("%d /v2 routes documented and registered", len(registered))
}

// Every route is registered once per server.
func TestRouteTableSanity(t *testing.T) {
	check := func(name string, routes []Route) {
		seen := map[string]bool{}
		for _, rt := range routes {
			key := rt.Method + " " + rt.Path
			if seen[key] {
				t.Errorf("%s: duplicate route %q", name, key)
			}
			seen[key] = true
		}
		if len(seen) == 0 {
			t.Errorf("%s: empty route table", name)
		}
	}
	check("provider", primaryRoutes())
	check("replica", replicaRoutes(t))
}
