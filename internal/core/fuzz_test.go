package core

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseRecipe: whatever bytes a recipe file holds, ParseRecipe never
// panics, and a recipe it accepts translates against a small graph — to
// rules or to an error — without panicking.
func FuzzParseRecipe(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "recipes", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		``, `{`, `null`, `[]`, `{}`, `{"name":"empty","scenarios":[]}`,
		`{"scenarios":[{"type":"meteor"}]}`,
		`{"pattern":"re:(","scenarios":[{"type":"abort","src":"web","dst":"db","errorCode":-1}]}`,
		`{"scenarios":[{"type":"abort","src":"web","dst":"nowhere","probability":7,"callPath":"web:1/db:2"}]}`,
		`{"scenarios":[{"type":"delay","src":"web","dst":"db","delayMillis":-5,"on":"sideways"}]}`,
		`{"scenarios":[{"type":"modify","src":"web","dst":"db","search":"","replace":"x"}]}`,
		`{"scenarios":[{"type":"disconnect","from":"db","to":"web"}]}`,
		`{"scenarios":[{"type":"crash","service":""},{"type":"hang","service":"user"}]}`,
		`{"scenarios":[{"type":"overload","service":"db","abortFraction":2,"delayMillis":9223372036854775807}]}`,
		`{"scenarios":[{"type":"fakeSuccess","service":"db"}]}`,
		`{"scenarios":[{"type":"partition","sideA":[],"sideB":["db","db"]}]}`,
		`{"scenarios":[{"type":"partition","sideA":["web"],"sideB":["web"]}]}`,
		`{"scenarios":[{"type":"streamSever","src":"web","dst":"db","abortAfterBytes":-1,"severMode":"rst"}]}`,
		`{"scenarios":[{"type":"streamHalfOpen","src":"web","dst":"db"},{"type":"streamThrottle","src":"web","dst":"db","rateBytesPerSec":0}]}`,
		`{"scenarios":[{"type":"streamJitter","src":"web","dst":"db","delayMillis":1},{"type":"connectRefuse","src":"user","dst":"web"},{"type":"connectDelay","src":"web","dst":"auth","delayMillis":3}]}`,
		`{"scenarios":[{"type":"crash","service":"db"}],"checks":[{"type":"timeouts","service":"web","maxLatencyMillis":1},{"type":"boundedRetries","src":"web","dst":"db"},{"type":"circuitBreaker","src":"web","dst":"db","threshold":1,"tdeltaMillis":1},{"type":"bulkhead","src":"web","slowDst":"db","rate":1e308},{"type":"noCalls"},{"type":"fallback","service":"web","okFraction":1},{"type":"streamFaults","minFired":-3}]}`,
	} {
		f.Add([]byte(s))
	}
	g := appGraph()
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseRecipe(data)
		if err != nil {
			return
		}
		_, _ = r.Translate(g)
	})
}
