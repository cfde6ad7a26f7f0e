package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"bitswapmon/internal/sweep"
)

// pinnedWeekRender is the sha256 of RunWeekSpec(tinySpec, seed 42)'s
// rendered report without its wall-time line, computed before the
// measurement procedure moved into sweep.Measure. It must not move.
const pinnedWeekRender = "b69a39d09885931b752e3d75d7883b52cada411ac9fb1813ec2cc4d985eb1a4c"

func TestRunWeekPinnedOutput(t *testing.T) {
	rep, err := RunWeekSpec(tinySpec())
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

// pinnedUpgradeCSV is the sha256 of the Fig. 4 CSV of the 80-node, 2-week,
// seed-7 upgrade scenario, computed while RunUpgrade still built its world
// and ran its window by hand. It must not move.
const pinnedUpgradeCSV = "079597272e65009039a4a44810252af66b8bcc1950975b5ec8aeb2c41c2f36b9"

func TestRunUpgradePinnedOutput(t *testing.T) {
	spec := sweep.UpgradeSpec(80, 2)
	spec.Seed = 7
	rep, err := RunUpgrade(spec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(rep.Fig4.CSV()))
	if got := hex.EncodeToString(sum[:]); got != pinnedUpgradeCSV {
		t.Errorf("fig4 CSV sha256 = %s, want %s; CSV:\n%s", got, pinnedUpgradeCSV, rep.Fig4.CSV())
	}
}
