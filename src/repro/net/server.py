"""Network-facing CA server endpoint.

Speaks the Figure 1 message flow on top of a
:class:`~repro.core.authentication.CertificateAuthority`: handshakes
return PUF address information, digest submissions trigger the RBC
search, and successful searches end with a salted key generation and an
RA update. Search wall-time is measured (the engine really runs); the
transport separately accounts for communication, matching the paper's
"Comm. Time" / "Search Time" split.
"""

from __future__ import annotations

from repro.core.authentication import CertificateAuthority
from repro.net.messages import (
    AuthenticationResult,
    DigestSubmission,
    HandshakeRequest,
    HandshakeResponse,
)

__all__ = ["CAServer"]


class CAServer:
    """Message-level wrapper around the Certificate Authority."""

    def __init__(self, authority: CertificateAuthority):
        self.authority = authority
        self.handshakes_served = 0
        self.searches_run = 0

    def handle_handshake(self, request: HandshakeRequest) -> HandshakeResponse:
        """Figure 1 handshake: return the PUF address information.

        The wire tenant selects the store namespace the client's
        enrollment record is looked up in; responses carry the bare
        client id, exactly as before tenancy.
        """
        challenge = self.authority.issue_challenge(
            request.client_id, tenant_id=request.tenant
        )
        self.handshakes_served += 1
        return HandshakeResponse.from_challenge(challenge)

    def handle_digest(self, submission: DigestSubmission) -> AuthenticationResult:
        """Run the RBC search for a submitted digest."""
        self.searches_run += 1
        result = self.authority.run_search(
            submission.client_id,
            submission.digest,
            deadline_seconds=submission.deadline_seconds,
            tenant_id=submission.tenant,
        )
        public_key = None
        if result.found:
            assert result.seed is not None
            public_key = self.authority.issue_public_key(
                submission.client_id, result.seed, tenant_id=submission.tenant
            )
        return AuthenticationResult(
            client_id=submission.client_id,
            authenticated=result.found,
            distance=result.distance,
            public_key=public_key,
            search_seconds=result.elapsed_seconds,
            timed_out=result.timed_out,
        )
