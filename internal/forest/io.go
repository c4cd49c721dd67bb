package forest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// treeDTO is the serialised form of a Tree (exported fields for gob).
type treeDTO struct {
	Feature []int32
	Thresh  []float64
	Left    []int32
	Right   []int32
	Value   []float64
	Gain    []float64
}

// MarshalBinary encodes the tree (encoding.BinaryMarshaler).
func (t *Tree) MarshalBinary() ([]byte, error) {
	dto := treeDTO{
		Feature: make([]int32, len(t.nodes)),
		Thresh:  make([]float64, len(t.nodes)),
		Left:    make([]int32, len(t.nodes)),
		Right:   make([]int32, len(t.nodes)),
		Value:   make([]float64, len(t.nodes)),
		Gain:    make([]float64, len(t.nodes)),
	}
	for i, n := range t.nodes {
		dto.Feature[i] = int32(n.feature)
		dto.Thresh[i] = n.thresh
		dto.Left[i] = n.left
		dto.Right[i] = n.right
		dto.Value[i] = n.value
		dto.Gain[i] = n.gain
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a tree (encoding.BinaryUnmarshaler).
func (t *Tree) UnmarshalBinary(data []byte) error {
	var dto treeDTO
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dto); err != nil {
		return err
	}
	n := len(dto.Feature)
	if len(dto.Thresh) != n || len(dto.Left) != n || len(dto.Right) != n || len(dto.Value) != n {
		return fmt.Errorf("forest: corrupt tree encoding")
	}
	if n == 0 {
		return fmt.Errorf("forest: tree has no nodes")
	}
	t.nodes = make([]node, n)
	for i := range t.nodes {
		left, right := dto.Left[i], dto.Right[i]
		if dto.Feature[i] >= 0 {
			// The builder appends children after their parent, so
			// parent < child < n holds for every trained tree and proves
			// the decoded tree acyclic: Predict's walk strictly advances.
			if int(left) <= i || int(left) >= n || int(right) <= i || int(right) >= n {
				return fmt.Errorf("forest: node %d has child index out of range (%d, %d)", i, left, right)
			}
			if math.IsNaN(dto.Thresh[i]) || math.IsInf(dto.Thresh[i], 0) {
				return fmt.Errorf("forest: node %d has non-finite threshold", i)
			}
		} else if math.IsNaN(dto.Value[i]) || math.IsInf(dto.Value[i], 0) {
			return fmt.Errorf("forest: leaf %d has non-finite value", i)
		}
		t.nodes[i] = node{
			feature: int(dto.Feature[i]),
			thresh:  dto.Thresh[i],
			left:    left,
			right:   right,
			value:   dto.Value[i],
		}
		if i < len(dto.Gain) {
			t.nodes[i].gain = dto.Gain[i]
		}
	}
	return nil
}

// forestDTO is the serialised form of a Forest.
type forestDTO struct {
	Trees [][]byte
}

// MarshalBinary encodes the forest.
func (f *Forest) MarshalBinary() ([]byte, error) {
	dto := forestDTO{Trees: make([][]byte, len(f.trees))}
	for i, t := range f.trees {
		b, err := t.MarshalBinary()
		if err != nil {
			return nil, err
		}
		dto.Trees[i] = b
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a forest.
func (f *Forest) UnmarshalBinary(data []byte) error {
	var dto forestDTO
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dto); err != nil {
		return err
	}
	f.trees = make([]*Tree, len(dto.Trees))
	for i, b := range dto.Trees {
		t := &Tree{}
		if err := t.UnmarshalBinary(b); err != nil {
			return err
		}
		f.trees[i] = t
	}
	return nil
}
