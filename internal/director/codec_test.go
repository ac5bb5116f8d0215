package director

import (
	"bytes"
	"errors"
	"testing"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/wire"
)

func dirFP(seed byte) fingerprint.Fingerprint {
	var fp fingerprint.Fingerprint
	for i := range fp {
		fp[i] = seed ^ byte(i*13)
	}
	return fp
}

func sampleDirRequest() dirRequest {
	return dirRequest{
		Op:      dirOp(3),
		Client:  "client-a",
		Session: 77,
		Path:    "/vm/disk0.img",
		Chunks: []ChunkEntry{
			{FP: dirFP(1), Size: 4096, Node: 0},
			{FP: dirFP(2), Size: 512, Node: 3},
		},
		Nodes: []NodeInfo{{ID: 0, Addr: "127.0.0.1:9000"}, {ID: 3, Addr: "unix:/tmp/n3.sock"}},
		Epoch: 5,
		Gen:   9,
		Mig: Migration{
			ID: 2, Path: "/vm/disk0.img", From: 0, To: 3, Start: 10, Count: 2,
			FPs: []fingerprint.Fingerprint{dirFP(4), dirFP(5)},
		},
		MigID: 2,
	}
}

func sampleDirResponse() dirResponse {
	return dirResponse{
		Err:     "director: no such session",
		Session: 77,
		Recipe: Recipe{
			Path: "/vm/disk0.img", Session: 77, Gen: 9,
			Chunks: []ChunkEntry{{FP: dirFP(6), Size: 4096, Node: 1}},
		},
		Files:   []string{"/vm/disk0.img", "/vm/disk1.img"},
		Members: MembershipInfo{Epoch: 5, Nodes: []NodeInfo{{ID: 0}, {ID: 1, Addr: "h:1"}}, NextID: 4},
		MigID:   2,
		Migs:    []Migration{{ID: 2, Path: "p", From: 1, To: 0, Start: 0, Count: 1, FPs: []fingerprint.Fingerprint{dirFP(7)}}},
		Recipes: []Recipe{{Path: "q", Session: 78, Gen: 1}},
	}
}

func TestDirRequestRoundTrip(t *testing.T) {
	req := sampleDirRequest()
	enc := appendDirRequest(nil, &req)
	got, err := decodeDirRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if re := appendDirRequest(nil, &got); !bytes.Equal(re, enc) {
		t.Fatal("director request did not survive the round trip")
	}
	if got.Client != req.Client || got.Path != req.Path || len(got.Chunks) != len(req.Chunks) {
		t.Fatalf("decoded request mismatch: %+v", got)
	}
}

func TestDirResponseRoundTrip(t *testing.T) {
	resp := sampleDirResponse()
	enc := appendDirResponse(nil, &resp)
	got, err := decodeDirResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if re := appendDirResponse(nil, &got); !bytes.Equal(re, enc) {
		t.Fatal("director response did not survive the round trip")
	}
	if got.Err != resp.Err || len(got.Files) != 2 || got.Members.Epoch != 5 || got.Members.NextID != 4 {
		t.Fatalf("decoded response mismatch: %+v", got)
	}
}

func TestDirDecodeTypedErrors(t *testing.T) {
	req := sampleDirRequest()
	enc := appendDirRequest(nil, &req)
	if _, err := decodeDirRequest(enc[:len(enc)-2]); !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("truncated: %v, want ErrTruncated or ErrMalformed", err)
	}
	if _, err := decodeDirRequest([]byte{frameDirResponse}); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("wrong kind: %v, want ErrMalformed", err)
	}
	if _, err := decodeDirResponse(append(append([]byte{}, appendDirResponse(nil, &dirResponse{})...), 1)); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("trailing byte: %v, want ErrMalformed", err)
	}
}
