package main

import "testing"

func TestStoreCommandsRequireStoreFlag(t *testing.T) {
	for _, sub := range []string{"query", "stats", "wipe"} {
		if err := gremlin(sub); err == nil {
			t.Errorf("%s without -store should fail", sub)
		}
	}
}
