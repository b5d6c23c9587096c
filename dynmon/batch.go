package dynmon

import (
	"encoding/json"
	"fmt"
)

// BatchSpec is the declarative description of an ensemble: one system and
// one set of run options shared by every item, plus a list of initial
// configurations — the wire form of "run these N replicas over this rule ×
// substrate" that dynamosim -batch-spec and the dynserve /v1/batch endpoint
// consume.  Each item denotes exactly the run its Item(i) FileSpec does, so
// per-item digests share the content-address space (and therefore the
// result cache) of single-run spec files.
type BatchSpec struct {
	System Spec          `json:"system"`
	Run    RunSpec       `json:"run"`
	Items  []InitialSpec `json:"items"`
}

// ParseBatchSpec decodes a batch spec, strictly: unknown fields, trailing
// data, an invalid system section or an empty item list are errors.
func ParseBatchSpec(data []byte) (*BatchSpec, error) {
	return parseStrict(data, "batch spec", (*BatchSpec).Validate)
}

// Validate checks the batch's structure without building anything.
func (bs *BatchSpec) Validate() error {
	if err := bs.System.Validate(); err != nil {
		return err
	}
	if len(bs.Items) == 0 {
		return fmt.Errorf("dynmon: batch spec has no items")
	}
	return nil
}

// JSON renders the batch spec as indented JSON with a trailing newline.
func (bs *BatchSpec) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(bs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Item returns the single-run spec file item i denotes: the batch's system
// and run sections with item i as the initial configuration.  The returned
// FileSpec aliases the batch's item (it points into Items), which is what
// makes Item(i).Digest() the item's cache key.
func (bs *BatchSpec) Item(i int) *FileSpec {
	return &FileSpec{System: bs.System, Initial: &bs.Items[i], Run: bs.Run}
}

// ItemDigest returns the content address of item i's run — equal to the
// digest of the equivalent single-run spec file, so batch items hit the
// same result cache entries as individually submitted runs.
func (bs *BatchSpec) ItemDigest(i int) (string, error) {
	return bs.Item(i).Digest()
}

// Digest returns a stable content address of the whole batch: "sha256:"
// plus the hex SHA-256 of the compact JSON of the canonicalized system
// spec, the run spec's wire fields and the item list, mirroring
// FileSpec.Digest.
func (bs *BatchSpec) Digest() (string, error) {
	system, err := bs.System.Canonical()
	if err != nil {
		return "", err
	}
	canonical := BatchSpec{System: *system, Run: bs.Run.wireClone(), Items: bs.Items}
	return digestOf(&canonical)
}

// Build instantiates the ensemble: the system, one construction per item
// (in item order) and the effective target color (Run.Target, default 1).
// It is the construction path shared by the CLI and the dynserve batch
// endpoint, and each construction is exactly what Item(i).Build would have
// produced.
func (bs *BatchSpec) Build() (*System, []*Construction, Color, error) {
	sys, err := bs.System.New()
	if err != nil {
		return nil, nil, None, err
	}
	target := bs.Run.Target
	if target == None {
		target = 1
	}
	cons := make([]*Construction, len(bs.Items))
	for i := range bs.Items {
		c, err := sys.BuildInitial(&bs.Items[i], target)
		if err != nil {
			return nil, nil, None, fmt.Errorf("dynmon: batch item %d: %w", i, err)
		}
		cons[i] = c
	}
	return sys, cons, target, nil
}

// Initials is Build reduced to the colorings, the form Session.RunBatch
// wants.
func (bs *BatchSpec) Initials() (*System, []*Coloring, error) {
	sys, cons, _, err := bs.Build()
	if err != nil {
		return nil, nil, err
	}
	initials := make([]*Coloring, len(cons))
	for i, c := range cons {
		initials[i] = c.Coloring
	}
	return sys, initials, nil
}
