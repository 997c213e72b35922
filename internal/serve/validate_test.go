package serve

import (
	"net/http"
	"strings"
	"testing"
)

// TestServeRejectsNegativeSizes: a spec with a negative Seeds or Bits
// would run the default grid under its own fingerprint, so submission
// refuses it; a spec omitting them still takes the defaults.
func TestServeRejectsNegativeSizes(t *testing.T) {
	_, hs, _ := newTestServer(t, 0)
	for field, want := range map[string]string{"Seeds": "seeds", "Bits": "bit budget"} {
		axes := testAxes(1)
		if field == "Seeds" {
			axes.Seeds = -1
		} else {
			axes.Bits = -8
		}
		resp, body := request(t, hs, "POST", "/v1/sweeps", axes)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
			t.Errorf("negative %s: HTTP %d %q, want 400 naming %q", field, resp.StatusCode, body, want)
		}
	}
	defaults := testAxes(0)
	defaults.Bits = 0
	if resp, body := request(t, hs, "POST", "/v1/sweeps", defaults); resp.StatusCode != http.StatusAccepted {
		t.Errorf("spec omitting Seeds and Bits: HTTP %d %q, want 202", resp.StatusCode, body)
	}
}
