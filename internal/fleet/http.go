package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Wire types of the sentryd serving API. Every typed fleet error crosses
// the boundary as its ErrorCode string, and HTTPClient maps codes back to
// the same sentinels, so errors.Is behaves identically on both transports.
type (
	// WireOp is one operation in a batch request: the op name (OpCode's
	// String form), its argument, and its mailbox priority.
	WireOp struct {
		Code string `json:"code"`
		Arg  uint64 `json:"arg,omitempty"`
		Prio int    `json:"prio,omitempty"`
	}
	// WireBatch is the body of POST /v1/devices/{id}/ops.
	WireBatch struct {
		Ops []WireOp `json:"ops"`
	}
	// WireResult is one op's outcome: the typed Result plus the error code
	// ("ok" on success) and human-readable message.
	WireResult struct {
		Result
		Code  string `json:"code"`
		Error string `json:"error,omitempty"`
	}
	// WireBatchResp is the body of a batch response, one entry per op in
	// request order.
	WireBatchResp struct {
		Results []WireResult `json:"results"`
	}
	// WireError is the body of a non-200 response.
	WireError struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
)

// maxBatchOps bounds one batch request; larger batches are a client bug,
// not a load profile.
const maxBatchOps = 1024

// maxBatchBytes bounds a batch body before it is decoded. One encoded
// WireOp with the longest op name and full-width arg and prio is under 100
// bytes; 256 per op leaves room for whitespace and the envelope.
const maxBatchBytes = maxBatchOps * 256

// NewHandler mounts the fleet serving API:
//
//	POST /v1/devices/{id}/ops     — execute a batch of ops, JSON-typed results
//	GET  /v1/devices/{id}/ledger  — the device's sequence ledger
//	GET  /v1/devices/{id}/health  — one device's probe view
//	GET  /v1/health               — fleet-level probe summary
//
// Per-op failures ride inside a 200 batch response (each entry carries its
// own code); request-level failures (bad JSON, unknown device, overload,
// shutdown) use HTTP status codes with a WireError body.
func NewHandler(f *Fleet) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/devices/{id}/ops", func(w http.ResponseWriter, r *http.Request) {
		id, ok := deviceID(w, r)
		if !ok {
			return
		}
		var batch WireBatch
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBytes)).Decode(&batch); err != nil {
			status := http.StatusBadRequest
			if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, CodeOther, fmt.Sprintf("bad batch body: %v", err))
			return
		}
		if len(batch.Ops) == 0 {
			writeError(w, http.StatusBadRequest, CodeOther, "empty batch")
			return
		}
		if len(batch.Ops) > maxBatchOps {
			writeError(w, http.StatusBadRequest, CodeOther,
				fmt.Sprintf("batch of %d ops exceeds limit %d", len(batch.Ops), maxBatchOps))
			return
		}
		ops := make([]Op, len(batch.Ops))
		for i, wop := range batch.Ops {
			code, ok := OpCodeByName(wop.Code)
			if !ok {
				writeError(w, http.StatusBadRequest, CodeOther, fmt.Sprintf("unknown op %q", wop.Code))
				return
			}
			ops[i] = Op{Code: code, Arg: wop.Arg, Prio: wop.Prio}
		}
		resp := WireBatchResp{Results: make([]WireResult, 0, len(ops))}
		for _, op := range ops {
			res, err := f.Do(r.Context(), id, op)
			// Request-level conditions abort the whole batch with a status
			// the client backs off on; per-device outcomes ride per-op.
			switch {
			case errors.Is(err, ErrOverload):
				writeError(w, http.StatusTooManyRequests, CodeOverload, err.Error())
				return
			case errors.Is(err, ErrShutdown):
				writeError(w, http.StatusServiceUnavailable, CodeShutdown, err.Error())
				return
			case errors.Is(err, ErrUnknownDevice):
				writeError(w, http.StatusNotFound, CodeUnknownDevice, err.Error())
				return
			}
			wr := WireResult{Result: res, Code: ErrorCode(err)}
			if err != nil {
				wr.Error = err.Error()
			}
			resp.Results = append(resp.Results, wr)
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /v1/devices/{id}/ledger", func(w http.ResponseWriter, r *http.Request) {
		id, ok := deviceID(w, r)
		if !ok {
			return
		}
		ledger, err := f.Ledger(r.Context(), id)
		if err != nil {
			if errors.Is(err, ErrUnknownDevice) {
				writeError(w, http.StatusNotFound, CodeUnknownDevice, err.Error())
				return
			}
			writeError(w, http.StatusInternalServerError, ErrorCode(err), err.Error())
			return
		}
		if ledger == nil {
			ledger = []LedgerEntry{}
		}
		writeJSON(w, http.StatusOK, ledger)
	})

	mux.HandleFunc("GET /v1/devices/{id}/health", func(w http.ResponseWriter, r *http.Request) {
		id, ok := deviceID(w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, f.DeviceHealth(id))
	})

	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, r *http.Request) {
		h, err := f.Health(r.Context())
		if err != nil {
			writeError(w, http.StatusInternalServerError, ErrorCode(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, h)
	})
	return mux
}

func deviceID(w http.ResponseWriter, r *http.Request) (DeviceID, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeOther, fmt.Sprintf("bad device id %q", r.PathValue("id")))
		return 0, false
	}
	return DeviceID(id), true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, WireError{Code: code, Error: msg})
}
