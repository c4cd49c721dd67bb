package forest

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"stac/internal/stats"
)

func TestTreeSerializationRoundTrip(t *testing.T) {
	x, y := synth(150, 31)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	tree, err := BuildTree(x, y, idx, TreeConfig{MaxFeatures: 6}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := tree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Tree
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if restored.Predict(x[i]) != tree.Predict(x[i]) {
			t.Fatalf("prediction differs after round trip at row %d", i)
		}
	}
}

func TestForestSerializationRoundTrip(t *testing.T) {
	x, y := synth(200, 33)
	f, err := Train(x, y, RandomForest(12), stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Forest
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.NumTrees() != f.NumTrees() {
		t.Fatalf("tree count %d != %d", restored.NumTrees(), f.NumTrees())
	}
	for i := 0; i < 50; i++ {
		if restored.Predict(x[i]) != f.Predict(x[i]) {
			t.Fatalf("prediction differs after round trip at row %d", i)
		}
	}
}

func TestUnmarshalRejectsCorruptTree(t *testing.T) {
	var tr Tree
	if err := tr.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// encodeDTO gob-encodes a hand-built tree, bypassing the builder, so a
// test can hand UnmarshalBinary structures no trained tree produces.
func encodeDTO(t *testing.T, dto treeDTO) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnmarshalRejectsCyclicTree: a node that is its own child would make
// Predict walk forever, so the decoder must refuse it.
func TestUnmarshalRejectsCyclicTree(t *testing.T) {
	data := encodeDTO(t, treeDTO{
		Feature: []int32{0},
		Thresh:  []float64{0.5},
		Left:    []int32{0},
		Right:   []int32{0},
		Value:   []float64{1},
	})
	var tr Tree
	if err := tr.UnmarshalBinary(data); err == nil {
		t.Fatal("self-referencing node accepted")
	}
	// A back edge deeper in the tree is a cycle too.
	data = encodeDTO(t, treeDTO{
		Feature: []int32{0, 0, -1},
		Thresh:  []float64{0.5, 0.5, 0},
		Left:    []int32{1, 0, 0},
		Right:   []int32{2, 2, 0},
		Value:   []float64{0, 0, 1},
	})
	if err := tr.UnmarshalBinary(data); err == nil {
		t.Fatal("back edge to the root accepted")
	}
}

// TestUnmarshalRejectsEmptyTree: a zero-node tree would panic on its
// first Predict.
func TestUnmarshalRejectsEmptyTree(t *testing.T) {
	var tr Tree
	if err := tr.UnmarshalBinary(encodeDTO(t, treeDTO{})); err == nil {
		t.Fatal("empty tree accepted")
	}
}

// TestUnmarshalRejectsNonFinite: thresholds and leaf values must be finite.
func TestUnmarshalRejectsNonFinite(t *testing.T) {
	for name, dto := range map[string]treeDTO{
		"nan threshold": {
			Feature: []int32{0, -1, -1}, Thresh: []float64{math.NaN(), 0, 0},
			Left: []int32{1, 0, 0}, Right: []int32{2, 0, 0}, Value: []float64{0, 1, 2},
		},
		"inf leaf": {
			Feature: []int32{-1}, Thresh: []float64{0},
			Left: []int32{0}, Right: []int32{0}, Value: []float64{math.Inf(1)},
		},
	} {
		var tr Tree
		if err := tr.UnmarshalBinary(encodeDTO(t, dto)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
