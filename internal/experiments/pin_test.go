package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// pinnedWeekRender is the sha256 of RunWeekSpec(tinyScale, seed 42)'s
// rendered report without its wall-time line, computed before the
// measurement procedure moved into sweep.Measure. It must not move.
const pinnedWeekRender = "b69a39d09885931b752e3d75d7883b52cada411ac9fb1813ec2cc4d985eb1a4c"

func TestRunWeekPinnedOutput(t *testing.T) {
	rep, err := RunWeekSpec(tinyScale().Spec(42))
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Render()
	text = text[:strings.LastIndex(text, "\nwall time:")]
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:]); got != pinnedWeekRender {
		t.Errorf("week report sha256 = %s, want %s; rendered:\n%s", got, pinnedWeekRender, text)
	}
}
