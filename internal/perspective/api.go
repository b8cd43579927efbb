package perspective

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"dissenter/internal/crawlkit"
)

// The wire format mirrors the real Perspective API's comments:analyze
// method closely enough that the study's client code is shaped like the
// real thing: a JSON request naming requested attributes, a JSON response
// with per-attribute summary scores.

// AnalyzeRequest is the comments:analyze request body.
type AnalyzeRequest struct {
	Comment struct {
		Text string `json:"text"`
	} `json:"comment"`
	RequestedAttributes map[Model]struct{} `json:"requestedAttributes"`
}

// AnalyzeResponse is the comments:analyze response body.
type AnalyzeResponse struct {
	AttributeScores map[Model]AttributeScore `json:"attributeScores"`
}

// AttributeScore carries one model's result.
type AttributeScore struct {
	SummaryScore struct {
		Value float64 `json:"value"`
	} `json:"summaryScore"`
}

// apiError is the error envelope the endpoint returns.
type apiError struct {
	Error struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// Handler returns an http.Handler serving POST /v1/comments:analyze.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/comments:analyze", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeAPIError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		var req AnalyzeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeAPIError(w, http.StatusBadRequest, "bad request body")
			return
		}
		if len(req.RequestedAttributes) == 0 {
			writeAPIError(w, http.StatusBadRequest, "no requested attributes")
			return
		}
		resp := AnalyzeResponse{AttributeScores: map[Model]AttributeScore{}}
		for m := range req.RequestedAttributes {
			if !m.Valid() {
				writeAPIError(w, http.StatusBadRequest, fmt.Sprintf("unknown attribute %q", m))
				return
			}
			var as AttributeScore
			as.SummaryScore.Value = Score(m, req.Comment.Text)
			resp.AttributeScores[m] = as
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			// Connection-level failure; nothing more to do.
			return
		}
	})
	return mux
}

func writeAPIError(w http.ResponseWriter, code int, msg string) {
	var e apiError
	e.Error.Code = code
	e.Error.Message = msg
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(e)
}

// Client calls a Perspective-style endpoint. The zero value is unusable;
// construct with NewClient.
type Client struct {
	baseURL string
	fetcher *crawlkit.Fetcher
}

// NewClient builds a client for the endpoint at baseURL (no trailing
// slash). A nil httpClient uses crawlkit's default.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return &Client{baseURL: baseURL, fetcher: crawlkit.NewFetcher(httpClient)}
}

// Analyze scores one comment with the requested models over HTTP, under
// crawlkit's retry policy (429 honoring Retry-After, 5xx, transport
// errors).
func (c *Client) Analyze(ctx context.Context, text string, models []Model) (map[Model]float64, error) {
	var req AnalyzeRequest
	req.Comment.Text = text
	req.RequestedAttributes = make(map[Model]struct{}, len(models))
	for _, m := range models {
		req.RequestedAttributes[m] = struct{}{}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("perspective: encode request: %w", err)
	}
	res, err := c.fetcher.Post(ctx, c.baseURL+"/v1/comments:analyze", "application/json", string(body))
	if err != nil {
		return nil, fmt.Errorf("perspective: %w", err)
	}
	if res.Status != http.StatusOK {
		var e apiError
		_ = json.Unmarshal(res.Body, &e)
		return nil, fmt.Errorf("perspective: HTTP %d: %s", res.Status, e.Error.Message)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(res.Body, &out); err != nil {
		return nil, fmt.Errorf("perspective: decode response: %w", err)
	}
	scores := make(map[Model]float64, len(out.AttributeScores))
	for m, as := range out.AttributeScores {
		scores[m] = as.SummaryScore.Value
	}
	return scores, nil
}
