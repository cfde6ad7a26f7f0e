package wire

import "testing"

func TestEntryTypeStrings(t *testing.T) {
	for _, et := range []EntryType{WantBlock, WantHave, Cancel} {
		parsed, err := ParseEntryType(et.String())
		if err != nil {
			t.Fatalf("ParseEntryType(%q): %v", et.String(), err)
		}
		if parsed != et {
			t.Errorf("round trip %v != %v", parsed, et)
		}
	}
	if _, err := ParseEntryType("NOPE"); err == nil {
		t.Error("expected error")
	}
	if Have.String() != "HAVE" || DontHave.String() != "DONT_HAVE" {
		t.Error("presence strings wrong")
	}
}
